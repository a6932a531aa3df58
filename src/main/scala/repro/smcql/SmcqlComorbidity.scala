package repro.smcql

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.mpc.MpcBackend
import repro.queries.Comorbidity

/** SMCQL baseline for the comorbidity query (§7.4, Fig. 7b).
  *
  * SMCQL applies the same optimization Conclave does here — splitting the
  * aggregation into local pre-counts plus an MPC combine — so the query plan
  * is identical; the difference is purely the MPC backend: SMCQL's
  * ObliVM-like garbled circuits instead of Sharemind-style secret sharing
  * ("the improvement is due to a difference in MPC backends", §7.4).
  */
object SmcqlComorbidity {

  final case class Result(top: Seq[(Double, Double)], reportedSeconds: Double,
      mpcModeledSeconds: Double)

  def run(spark: SparkSession, inputs: Map[String, DataFrame]): Result = {
    val plan = Compiler.compile(Comorbidity.build(), CompileConfig.default)
    val backend = MpcBackend.oblivm(Set(Comorbidity.pH1, Comorbidity.pH2))
    val res = new Executor(spark, backend).run(plan, inputs)
    val rows = res.outputs(Comorbidity.OutputName).collect()
      .map(r => (r.getDouble(0), r.getDouble(1))).toSeq
    Result(rows, res.metrics.reportedSeconds, res.metrics.mpcModeledSeconds)
  }
}
