package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.Generators
import repro.mpc.{CostModel, CostParams}
import repro.queries.MarketConcentration

/** Table T2 (paper Fig. 4): the market concentration (HHI) query end-to-end.
  *
  * Systems: Conclave (full pipeline — local Spark pre-aggregation, tiny MPC
  * tail), Sharemind-only (the entire query under MPC), and insecure Spark
  * over the pooled data. The paper's 1.3B-record top point is scaled down
  * to what a single local Spark fits; the crossover shape is preserved.
  */
object Fig4MarketConc {

  def inputs(spark: SparkSession, totalRows: Long): Map[String, DataFrame] =
    MarketConcentration.InputNames.zipWithIndex.map { case (nm, i) =>
      nm -> Generators.taxiTrips(spark, totalRows / 3, seed = 100 + i)
    }.toMap

  def run(spark: SparkSession, sizes: Seq[Long]): Seq[BenchPoint] =
    sizes.flatMap { n =>
      val in = inputs(spark, n)
      Seq(
        BenchPoint("conclave", n, Some(runHhi(spark, in, CompileConfig.default).metrics.reportedSeconds)),
        Bench.capped("sharemind-mpc", n, sharemindOnlyPredicted(n)) {
          runHhi(spark, in, CompileConfig.mpcOnly).metrics.reportedSeconds
        },
        insecureSpark(spark, n, in))
    }

  /** The HHI query over `in`, compiled under `config`. */
  private[eval] def runHhi(spark: SparkSession, in: Map[String, DataFrame],
      config: CompileConfig): ExecResult =
    Bench.runConclave(spark, MarketConcentration.build(), config, in)

  /** A lower bound on the Sharemind-only run's modeled seconds: the
    * sorting network of the revenue aggregation over all (companyID, price)
    * rows of the three inputs, with the zero-fare filter's validity column.
    */
  private[eval] def sharemindOnlyPredicted(n: Long): Double =
    CostModel.sort(CostParams.Sharemind, 3 * (n / 3), width = 2, ascending = Seq(true),
      validity = true).modeledSeconds

  private def insecureSpark(spark: SparkSession, n: Long, in: Map[String, DataFrame]): BenchPoint = {
    in.foreach { case (nm, df) => df.createOrReplaceTempView(nm) }
    val (_, secs) = Bench.timed {
      spark.sql(MarketConcentration.referenceSql).collect()
    }
    BenchPoint("insecure-spark", n, Some(secs))
  }
}
