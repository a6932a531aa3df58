package repro.queries

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.mpc.MpcBackend
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
  /** Hospital `h` is party `h<h>` and holds `diag<h>` and `med<h>`. */
  val Hospitals: Seq[Int] = Seq(1, 2)
  val InputNames: Seq[String] = Seq("diag1", "diag2", "med1", "med2")
  val OutputName = "aspirin_count"

  /** Target diagnosis code (heart disease) and medication code (aspirin). */
  val TargetDiag = 1.0
  val TargetMed = 1.0

  /** The query over the inputs of `hospitals`, by default both. Over one
    * hospital, ownership places every operator at it, so the compiled plan
    * runs there in the clear (§5.1).
    */
  def build(hospitals: Seq[Int] = Hospitals): Dag = {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    def union(rels: Seq[Rel]) = if (rels.length == 1) rels.head else concat(rels: _*)
    // Every input comes before the unions, so node ids follow the inputs.
    val d = hospitals.map(h =>
      table(s"diag$h", Party(s"h$h"), publicCol("patient"), col("diag"), col("dtime")))
    val m = hospitals.map(h =>
      table(s"med$h", Party(s"h$h"), publicCol("patient"), col("med"), col("mtime")))
    union(d).join(union(m), Seq("patient"), Seq("patient"))
      .filter("diag", CmpOp.Eq, TargetDiag)
      .filter("med", CmpOp.Eq, TargetMed)
      .filterCol("mtime", CmpOp.Geq, "dtime")
      .project("patient")
      .distinct
      .aggregate(Seq.empty, AggFn.Count, None, "rc")
      .writeTo(OutputName, pH1)
    dag
  }

  /** The aspirin inputs sliced on the public patient ID (§7.4): the count
    * over the single-party slices, computed in the clear, and the shared
    * slices under the query's input names (`diag1` … `med2`).
    */
  final case class Split(localCount: Long, sharedKeys: Set[Double], shared: Map[String, DataFrame])

  /** The front half of both sliced drivers, Conclave's and SMCQL's. Each
    * hospital's single-party slices run the query compiled over that
    * hospital alone.
    */
  def split(spark: SparkSession, inputs: Map[String, DataFrame]): Split = {
    val sliced = Slicing.slice(spark,
      Hospitals.map(h => Seq(s"diag$h", s"med$h").map(rel => rel -> inputs(rel)).toMap),
      keyCol = "patient")
    Split(
      Hospitals.zip(sliced.localParts).map { case (h, rels) =>
        val plan = Compiler.compile(build(Seq(h)))
        val out = new Executor(spark, MpcBackend.sharemind(plan.dag.parties)).run(plan, rels)
          .outputs(OutputName)
        try out.collect().head.getDouble(0).toLong finally out.unpersist()
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
