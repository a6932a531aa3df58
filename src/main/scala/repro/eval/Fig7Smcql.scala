package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CompileConfig, Party}
import repro.data.Generators
import repro.mpc.{CostModel, CostParams, MpcBackend}
import repro.queries.{AspirinSliced, Comorbidity}
import repro.smcql.SmcqlAspirin

/** Tables T5/T6 (paper Fig. 7): Conclave vs. SMCQL on the two HealthLNK
  * queries.
  *
  * T5 — aspirin count (sizes are records *per party*, 2% patient overlap):
  * Conclave uses slicing + public join + sort elimination on the
  * secret-sharing backend; SMCQL runs one ObliVM garbled-circuit MPC per
  * shared patient slice, paying a circuit setup each time.
  *
  * T6 — comorbidity (sizes are records *per party*, 10% distinct diagnosis
  * keys): both systems split the aggregation, so SMCQL runs Conclave's
  * compiled plan; only the backend differs (ObliVM for SMCQL).
  */
object Fig7Smcql {

  def aspirinInputs(spark: SparkSession, perParty: Long): Map[String, DataFrame] = Map(
    "diag1" -> Generators.diagnoses(spark, perParty, party = 0),
    "diag2" -> Generators.diagnoses(spark, perParty, party = 1),
    "med1" -> Generators.medications(spark, perParty, party = 0),
    "med2" -> Generators.medications(spark, perParty, party = 1))

  def comorbidityInputs(spark: SparkSession, perParty: Long): Map[String, DataFrame] = Map(
    "cdiag1" -> Generators.comorbidityDiagnoses(spark, perParty, party = 0),
    "cdiag2" -> Generators.comorbidityDiagnoses(spark, perParty, party = 1))

  /** SMCQL's aspirin runtime is dominated by one circuit setup per shared
    * patient slice; the prediction assumes the generators' patient overlap
    * rather than reading the generated data.
    */
  private[eval] def smcqlAspirinPredicted(n: Long): Double =
    CostModel.setups(CostParams.ObliVM, (n * Generators.Overlap).toLong).modeledSeconds

  /** SMCQL's comorbidity runtime is dominated by the ObliVM sorting network
    * of the MPC combine over the (diag, cnt) pre-counts; the prediction
    * assumes the generators' distinct-diagnosis fraction at both parties,
    * so 2·`DistinctFrac`·n rows enter MPC, rather than reading the
    * generated data.
    */
  private[eval] def smcqlComorbidityPredicted(n: Long): Double =
    CostModel.sort(CostParams.ObliVM, (n * 2 * Generators.DistinctFrac).toLong, width = 2,
      ascending = Seq(true), validity = false).modeledSeconds

  def runAspirin(spark: SparkSession, sizes: Seq[Long]): Seq[BenchPoint] =
    sizes.flatMap { n =>
      val in = aspirinInputs(spark, n)
      Seq(
        BenchPoint("conclave", n, Some(AspirinSliced.run(spark, in).reportedSeconds)),
        Bench.capped("smcql", n, smcqlAspirinPredicted(n)) {
          SmcqlAspirin.run(spark, in).reportedSeconds
        })
    }

  def runComorbidity(spark: SparkSession, sizes: Seq[Long]): Seq[BenchPoint] =
    sizes.flatMap { n =>
      val in = comorbidityInputs(spark, n)
      def run(backend: Set[Party] => MpcBackend): Double =
        Bench.runConclave(spark, Comorbidity.build(), CompileConfig.default, in,
          Set(Comorbidity.pH1, Comorbidity.pH2), backend).metrics.reportedSeconds
      Seq(
        BenchPoint("conclave", n, Some(run(MpcBackend.sharemind(_)))),
        Bench.capped("smcql", n, smcqlComorbidityPredicted(n))(run(MpcBackend.oblivm(_))))
    }
}
