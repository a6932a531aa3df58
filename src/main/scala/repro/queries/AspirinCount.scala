package repro.queries

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col => column}
import repro.core._
import repro.smcql.Slicing

/** Aspirin-count query from the SMCQL paper, evaluated in §7.4 (Fig. 7a).
  *
  * Two hospitals each hold part of `diagnoses` and part of `medications`.
  * The query joins them on the *public* (anonymized) patient ID, filters by
  * target diagnosis and prescribed medication (both private columns) and by
  * prescription-after-diagnosis timing, and counts the distinct patients.
  *
  * Compiled in SMCQL-compatibility mode (no push-down past private filters,
  * §7.4), Conclave still wins through the *public join* — only rows whose
  * patient IDs appear in the join enter MPC — and through *sort
  * elimination*: the public join emits rows in patient order, the
  * MPC filters are order-preserving, so the distinct needs no oblivious
  * sort, reducing the MPC from O(n log n) to O(n).
  */
object AspirinCount {

  val pH1: Party = Party("h1"); val pH2: Party = Party("h2")
  val InputNames: Seq[String] = Seq("diag1", "diag2", "med1", "med2")
  val OutputName = "aspirin_count"

  /** Target diagnosis code (heart disease) and medication code (aspirin). */
  val TargetDiag = 1.0
  val TargetMed = 1.0

  def build(): Dag = {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val d1 = table("diag1", pH1, publicCol("patient"), col("diag"), col("dtime"))
    val d2 = table("diag2", pH2, publicCol("patient"), col("diag"), col("dtime"))
    val m1 = table("med1", pH1, publicCol("patient"), col("med"), col("mtime"))
    val m2 = table("med2", pH2, publicCol("patient"), col("med"), col("mtime"))
    val d = concat(d1, d2)
    val m = concat(m1, m2)
    d.join(m, Seq("patient"), Seq("patient"))
      .filter("diag", CmpOp.Eq, TargetDiag)
      .filter("med", CmpOp.Eq, TargetMed)
      .filterCol("mtime", CmpOp.Geq, "dtime")
      .project("patient")
      .distinct
      .aggregate(Seq.empty, AggFn.Count, None, "rc")
      .writeTo(OutputName, pH1)
    dag
  }

  /** The query over one party's own diagnoses `d` and medications `m`, in
    * Spark: the local half of the sliced runs (§7.4), for patient slices
    * held by a single party.
    */
  def localCount(d: DataFrame, m: DataFrame): Long = {
    val dd = d.where(column("diag") === TargetDiag).alias("d")
    val mm = m.where(column("med") === TargetMed).alias("m")
    dd.join(mm, column("d.patient") === column("m.patient") && column("m.mtime") >= column("d.dtime"))
      .select(column("d.patient")).distinct().count()
  }

  /** The aspirin inputs sliced on the public patient ID (§7.4): the count
    * over the single-party slices, computed in the clear, and the shared
    * slices under the query's input names (`diag1` … `med2`).
    */
  final case class Split(localCount: Long, sharedKeys: Set[Double], shared: Map[String, DataFrame])

  /** The front half of both sliced drivers, Conclave's and SMCQL's. */
  def split(spark: SparkSession, inputs: Map[String, DataFrame]): Split = {
    val hospitals = Seq("1", "2")
    val sliced = Slicing.slice(spark,
      hospitals.map(h => Seq(s"diag$h", s"med$h").map(rel => rel -> inputs(rel)).toMap),
      keyCol = "patient")
    Split(
      hospitals.zip(sliced.localParts).map { case (h, rels) =>
        localCount(rels(s"diag$h"), rels(s"med$h"))
      }.sum,
      sliced.sharedKeys,
      sliced.sharedParts.reduce(_ ++ _))
  }

  /** Cleartext reference over the union of both hospitals' inputs. */
  val referenceSql: String =
    """WITH d AS (SELECT * FROM diag1 UNION ALL SELECT * FROM diag2),
      |m AS (SELECT * FROM med1 UNION ALL SELECT * FROM med2)
      |SELECT CAST(COUNT(DISTINCT d.patient) AS DOUBLE) AS rc
      |FROM d JOIN m ON d.patient = m.patient
      |WHERE CAST(d.diag AS DOUBLE) = 1 AND CAST(m.med AS DOUBLE) = 1
      |  AND CAST(m.mtime AS DOUBLE) >= CAST(d.dtime AS DOUBLE)
      |""".stripMargin
}
