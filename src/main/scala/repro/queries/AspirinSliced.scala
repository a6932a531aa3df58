package repro.queries

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.mpc.MpcBackend

/** Conclave + slicing driver for aspirin count, mirroring §7.4: "we manually
  * implement SMCQL's slicing and combine it with Conclave's public join".
  *
  * Single-party patient slices run the query compiled over their hospital
  * alone, in Spark at that hospital; the shared slices go through the
  * compiled Conclave plan (public join over the overlap, order-preserving
  * MPC filters, sort-free distinct, count), and the final count is the
  * sum. Only rows for patient IDs present at both parties ever enter MPC.
  */
object AspirinSliced {

  final case class Result(count: Long, localSeconds: Double, mpcModeledSeconds: Double,
      mpcClosedRows: Long) {
    def reportedSeconds: Double = localSeconds + mpcModeledSeconds
  }

  def run(spark: SparkSession, inputs: Map[String, DataFrame]): Result = {
    val t0 = System.nanoTime()
    val split = AspirinCount.split(spark, inputs)
    val localSeconds = (System.nanoTime() - t0) / 1e9

    // Shared slices through the compiled Conclave plan.
    val plan = Compiler.compile(AspirinCount.build(), CompileConfig.smcqlCompat)
    val res = new Executor(spark, MpcBackend.sharemind(plan.dag.parties)).run(plan, split.shared)
    val mpcCount = res.outputs(AspirinCount.OutputName).collect().head.getDouble(0).toLong
    Result(split.localCount + mpcCount,
      localSeconds + math.max(0.0, res.metrics.wallSeconds - res.metrics.mpcRealSeconds),
      res.metrics.mpcModeledSeconds,
      res.metrics.closedRows)
  }
}
