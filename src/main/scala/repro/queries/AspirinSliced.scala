package repro.queries

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.mpc.MpcBackend
import repro.smcql.Slicing

/** Conclave + slicing driver for aspirin count, mirroring §7.4: "we manually
  * implement SMCQL's slicing and combine it with Conclave's public join".
  *
  * Single-party patient slices are processed entirely locally in Spark; the
  * shared slices go through the compiled Conclave plan (public join over the
  * overlap, order-preserving MPC filters, sort-free distinct, count), and
  * the final count is the sum. Only rows for patient IDs present at both
  * parties ever enter MPC.
  */
object AspirinSliced {

  final case class Result(count: Long, localSeconds: Double, mpcModeledSeconds: Double,
      mpcClosedRows: Long) {
    def reportedSeconds: Double = localSeconds + mpcModeledSeconds
  }

  def run(spark: SparkSession, inputs: Map[String, DataFrame]): Result = {
    val t0 = System.nanoTime()
    val sliced = Slicing.slice(spark,
      Seq(
        Map("diag" -> inputs("diag1"), "med" -> inputs("med1")),
        Map("diag" -> inputs("diag2"), "med" -> inputs("med2"))),
      keyCol = "patient")

    // Local slices in the clear, per party.
    val localCount = sliced.localParts.map(rels => AspirinCount.localCount(rels("diag"), rels("med"))).sum
    val localSeconds = (System.nanoTime() - t0) / 1e9

    // Shared slices through the compiled Conclave plan.
    val restricted = Map(
      "diag1" -> sliced.sharedParts(0)("diag"),
      "med1" -> sliced.sharedParts(0)("med"),
      "diag2" -> sliced.sharedParts(1)("diag"),
      "med2" -> sliced.sharedParts(1)("med"))
    val plan = Compiler.compile(AspirinCount.build(), CompileConfig.smcqlCompat)
    val backend = MpcBackend.sharemind(Set(AspirinCount.pH1, AspirinCount.pH2))
    val res = new Executor(spark, backend).run(plan, restricted)
    val mpcCount = res.outputs(AspirinCount.OutputName).collect().head.getDouble(0).toLong
    Result(localCount + mpcCount,
      localSeconds + math.max(0.0, res.metrics.wallSeconds - res.metrics.mpcRealSeconds),
      res.metrics.mpcModeledSeconds,
      res.metrics.closedRows)
  }
}
