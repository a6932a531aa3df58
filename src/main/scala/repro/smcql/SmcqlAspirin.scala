package repro.smcql

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{AggFn, CmpOp, Party}
import repro.mpc._
import repro.queries.AspirinCount

/** SMCQL baseline for the aspirin-count query (§7.4, Fig. 7a).
  *
  * SMCQL slices on the public patient ID: single-party slices run locally in
  * the clear; every shared slice becomes its *own small MPC* on the
  * ObliVM-like garbled-circuit backend, paying the per-invocation circuit
  * setup each time — which dominates its runtime (the paper's 14.3 minutes
  * at 40k rows/party vs. Conclave's 3.7 s). Within each slice the join and
  * the distinct run fully obliviously (SMCQL lacks Conclave's public-join
  * and sort-elimination optimizations).
  */
object SmcqlAspirin {

  final case class Result(count: Long, localSeconds: Double, mpcModeledSeconds: Double,
      slices: Int) {
    def reportedSeconds: Double = localSeconds + mpcModeledSeconds
  }

  private val parties: Set[Party] = Set(AspirinCount.pH1, AspirinCount.pH2)

  /** @param inputs diag1/diag2/med1/med2 DataFrames (patient, diag|med, time) */
  def run(spark: SparkSession, inputs: Map[String, DataFrame]): Result = {
    val t0 = System.nanoTime()
    val sliced = Slicing.slice(spark,
      Seq(
        Map("diag" -> inputs("diag1"), "med" -> inputs("med1")),
        Map("diag" -> inputs("diag2"), "med" -> inputs("med2"))),
      keyCol = "patient")

    // Local slices: the whole query per party, in the clear (Spark).
    val localCount = sliced.localParts.map(rels => AspirinCount.localCount(rels("diag"), rels("med"))).sum

    // Shared slices: one ObliVM MPC per patient ID.
    val byPatient = sliced.sharedParts.map { rels =>
      (collectRows(rels("diag")), collectRows(rels("med")))
    }
    val dRows = byPatient.flatMap(_._1).groupBy(_.head)
    val mRows = byPatient.flatMap(_._2).groupBy(_.head)
    val localSeconds = (System.nanoTime() - t0) / 1e9

    val backend = MpcBackend.oblivm(parties)
    var mpcCount = 0L
    var slices = 0
    sliced.sharedKeys.toSeq.sorted.foreach { patient =>
      val d = dRows.getOrElse(patient, Seq.empty)
      val m = mRows.getOrElse(patient, Seq.empty)
      if (d.nonEmpty && m.nonEmpty) {
        slices += 1
        backend.meter.addSetup() // per-slice circuit generation + handshake
        mpcCount += runSlice(backend, patient, d, m)
      }
    }
    Result(localCount + mpcCount, localSeconds, backend.meter.modeledSeconds, slices)
  }

  /** One sliced MPC: oblivious join, filters, distinct, count — all under
    * the garbled-circuit backend; the count is revealed to h1, the query's
    * recipient.
    */
  private def runSlice(b: MpcBackend, patient: Double,
      d: Seq[Seq[Double]], m: Seq[Seq[Double]]): Long = {
    val name = s"slice:$patient"
    val dRel = b.closeRows(s"$name:d", Seq("patient", "diag", "dtime"), d)
    val mRel = b.closeRows(s"$name:m", Seq("patient", "med", "mtime"), m)
    val j = b.join(name, dRel, mRel, Seq("patient"), Seq("patient"))
    val f = b.filterCol(
      b.filterLit(b.filterLit(j, "diag", CmpOp.Eq, AspirinCount.TargetDiag),
        "med", CmpOp.Eq, AspirinCount.TargetMed),
      "mtime", CmpOp.Geq, "dtime")
    val dist = b.distinct(b.project(f, Seq("patient")), preSorted = false)
    val cnt = b.globalAggregate(dist, None, AggFn.Count, "c")
    b.reveal(name, cnt, Set(AspirinCount.pH1)).head.head.toLong
  }

  private def collectRows(df: DataFrame): Seq[Seq[Double]] =
    df.collect().toSeq.map(r => (0 until r.length).map(i => r.getDouble(i)))
}
