package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.Generators
import repro.mpc.{CostModel, CostParams}
import repro.queries.CreditRegulation

/** Table T4 (paper Fig. 6): the credit-card regulation query end-to-end.
  *
  * Systems: Conclave with trust annotations (hybrid join + hybrid
  * aggregations, STP = regulator) vs. the whole query under Sharemind MPC.
  * Sizes are total records: half demographics at the regulator, a quarter
  * at each credit agency. The query's first operator is a cross-party join,
  * so without hybrid operators nothing can be pushed down (§7.3).
  */
object Fig6Credit {

  def inputs(spark: SparkSession, totalRows: Long): Map[String, DataFrame] = {
    val nDemo = totalRows / 2
    val nAgency = totalRows / 4
    Map(
      "demographics" -> Generators.demographics(spark, nDemo, nZips = 50),
      "scores1" -> Generators.creditScores(spark, nAgency, nDemo, seed = 301),
      "scores2" -> Generators.creditScores(spark, nAgency, nDemo, seed = 302))
  }

  def run(spark: SparkSession, sizes: Seq[Long]): Seq[BenchPoint] =
    sizes.flatMap { n =>
      val in = inputs(spark, n)
      Seq(
        BenchPoint("conclave-hybrid", n,
          Some(runCredit(spark, in, trustRegulator = true).metrics.reportedSeconds)),
        Bench.capped("sharemind-mpc", n, sharemindOnlyPredicted(n)) {
          runCredit(spark, in, trustRegulator = false).metrics.reportedSeconds
        })
    }

  /** The query over `in`: with the regulator trusted, compiled to hybrid
    * operators; without, entirely under MPC.
    */
  private[eval] def runCredit(spark: SparkSession, in: Map[String, DataFrame],
      trustRegulator: Boolean): ExecResult =
    Bench.runConclave(spark, CreditRegulation.build(trustRegulator),
      if (trustRegulator) CompileConfig.default else CompileConfig.mpcOnly, in)

  /** A lower bound on the Sharemind-only run's modeled seconds: the
    * equality tests of the Cartesian join of the demographics against both
    * agencies' scores, on SSN.
    */
  private[eval] def sharemindOnlyPredicted(n: Long): Double =
    CostModel.cartesianJoin(CostParams.Sharemind, n / 2, 2 * (n / 4), keys = 1).modeledSeconds
}
