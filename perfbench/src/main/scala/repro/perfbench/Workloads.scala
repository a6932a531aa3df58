package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core._
import repro.data.Generators
import repro.mpc.{CostSnapshot, LeakageEvent, MpcBackend}
import repro.queries.{AspirinCount, AspirinSliced, CreditRegulation, MarketConcentration}
import repro.smcql.Slicing

/** What the program reported for one query, read through its public results. */
final case class Execution(
    /** Collects the query's output, columns in the workload's `columns` order. */
    collect: () => Seq[Seq[Double]],
    reportedSeconds: Double,
    modeledSeconds: Double,
    frontierRows: Long,
    cleartextSeconds: Double,
    /** Simulator real time; NaN where the entry point does not expose it. */
    mpcRealSeconds: Double,
    cost: Option[CostSnapshot],
    leakage: Option[Map[LeakageEvent, Int]],
    /** Must repeat exactly from query to query on the same inputs. */
    exact: Any,
    /** The compiled plan; None where the entry point compiles internally. */
    plan: Option[Compiler.Plan],
)

/** Per-layer figures read outside the timed queries, for a workload whose
  * entry point hides its plan and counters.
  */
final case class Sidecar(mpc: Execution, buildSeconds: Double, compileSeconds: Double, note: String)

/** One benchmark workload: its inputs, its reference query and how one query
  * drives the program.
  */
sealed trait Workload {
  def name: String

  /** Input relations, uncached, deterministic in (seed, tiny). */
  def inputs(spark: SparkSession, seed: Long, tiny: Boolean): Seq[(String, DataFrame)]

  /** DuckDB SQL computing the expected output over the same inputs. */
  def referenceSql: String

  /** Output columns compared against the reference, in this order. */
  def columns: Seq[String]

  /** Columns that hold genuine fractions, compared within the fixed-point
    * tolerance the executor tests use; all others must match to 1e-6.
    */
  def fractional: Set[String]

  /** DSL build, compile and execute, with the output materialised. */
  def execute(spark: SparkSession, inputs: Map[String, DataFrame], tracer: Tracer): Execution

  /** Compiler and MPC counts taken outside the timed queries, where the
    * query's entry point hides them.
    */
  def sidecar(spark: SparkSession, inputs: Map[String, DataFrame]): Option[Sidecar] = None

  def tolerance(column: String): Double = if (fractional.contains(column)) 1e-3 else 1e-6
}

object Workload {

  val all: Seq[Workload] = Seq(Hhi, HhiMpc, CreditHybrid, Aspirin)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  private def multiset(events: Seq[LeakageEvent]): Map[LeakageEvent, Int] =
    events.groupBy(identity).view.mapValues(_.size).toMap

  /** DSL build, compile and `Executor.run` with a fresh backend and executor
    * per query, as `Bench.runConclave` does.
    */
  private def runPlan(spark: SparkSession, build: () => Dag, config: CompileConfig,
      parties: Set[Party], outputName: String, columns: Seq[String],
      inputs: Map[String, DataFrame], tracer: Tracer): Execution = {
    val dag = tracer.span("dsl.build")(build())
    val plan = tracer.span("core.compile")(Compiler.compile(dag, config))
    val backend = MpcBackend.sharemind(parties)
    val res = tracer.span("executor.run")(new Executor(spark, backend).run(plan, inputs))
    val m = res.metrics
    val out = res.outputs(outputName)
    val leaks = multiset(res.leakage.events)
    Execution(
      collect = () =>
        try out.select(columns.map(col): _*).collect().toSeq.map(r => columns.indices.map(r.getDouble))
        finally out.unpersist(),
      reportedSeconds = m.reportedSeconds,
      modeledSeconds = m.mpcModeledSeconds,
      frontierRows = m.closedRows,
      cleartextSeconds = m.wallSeconds - m.mpcRealSeconds,
      mpcRealSeconds = m.mpcRealSeconds,
      cost = Some(m.cost),
      leakage = Some(leaks),
      exact = (m.cost, leaks),
      plan = Some(plan),
    )
  }

  abstract class PlanWorkload(config: CompileConfig, parties: Set[Party], outputName: String)
      extends Workload {
    def build(): Dag

    def execute(spark: SparkSession, inputs: Map[String, DataFrame], tracer: Tracer): Execution =
      runPlan(spark, () => build(), config, parties, outputName, columns, inputs, tracer)
  }

  private def taxi(spark: SparkSession, seed: Long, totalRows: Long): Seq[(String, DataFrame)] =
    MarketConcentration.InputNames.zipWithIndex.map { case (nm, i) =>
      nm -> Generators.taxiTrips(spark, totalRows / 3, seed = 1000L * seed + 100 + 10 * i)
    }

  private val hhiParties = Set(MarketConcentration.pA, MarketConcentration.pB, MarketConcentration.pC)

  /** T2 under the full pipeline: local Spark pre-aggregation, 15 rows into MPC. */
  object Hhi extends PlanWorkload(CompileConfig.default, hhiParties, MarketConcentration.OutputName) {
    val name = "hhi"
    def build(): Dag = MarketConcentration.build()
    def inputs(spark: SparkSession, seed: Long, tiny: Boolean) =
      taxi(spark, seed, if (tiny) 3000 else 10_000_000L)
    val referenceSql = MarketConcentration.referenceSql
    val columns = Seq("hhi")
    val fractional = Set("hhi")
  }

  /** The same query with the whole plan under MPC. */
  object HhiMpc extends PlanWorkload(CompileConfig.mpcOnly, hhiParties, MarketConcentration.OutputName) {
    val name = "hhi-mpc"
    def build(): Dag = MarketConcentration.build()
    def inputs(spark: SparkSession, seed: Long, tiny: Boolean) =
      taxi(spark, seed, if (tiny) 300 else 10_000L)
    val referenceSql = MarketConcentration.referenceSql
    val columns = Seq("hhi")
    val fractional = Set("hhi")
  }

  /** T4 with the agencies trusting the regulator: hybrid join and aggregations. */
  object CreditHybrid extends PlanWorkload(CompileConfig.default,
      Set(CreditRegulation.pA, CreditRegulation.pB, CreditRegulation.pC), CreditRegulation.OutputName) {
    val name = "credit-hybrid"
    def build(): Dag = CreditRegulation.build(trustRegulator = true, withAvg = true)
    def inputs(spark: SparkSession, seed: Long, tiny: Boolean) = {
      val total = if (tiny) 600L else 30_000L
      val nDemo = total / 2
      Seq(
        "demographics" -> Generators.demographics(spark, nDemo, nZips = 50, seed = 1000L * seed + 21),
        "scores1" -> Generators.creditScores(spark, total / 4, nDemo, seed = 1000L * seed + 301),
        "scores2" -> Generators.creditScores(spark, total / 4, nDemo, seed = 1000L * seed + 302))
    }
    val referenceSql = CreditRegulation.referenceSqlAvg
    val columns = Seq("zip", "total", "cnt", "avg_score")
    val fractional = Set("avg_score")
  }

  /** T5 through `AspirinSliced.run`: slicing, public join, sort-free distinct. */
  object Aspirin extends Workload {
    val name = "aspirin"
    private val parties = Set(AspirinCount.pH1, AspirinCount.pH2)

    def inputs(spark: SparkSession, seed: Long, tiny: Boolean) = {
      val perParty = if (tiny) 1000L else 20_000L
      Seq(
        "diag1" -> Generators.diagnoses(spark, perParty, party = 0, seed = 1000L * seed + 31),
        "diag2" -> Generators.diagnoses(spark, perParty, party = 1, seed = 1000L * seed + 31),
        "med1" -> Generators.medications(spark, perParty, party = 0, seed = 1000L * seed + 41),
        "med2" -> Generators.medications(spark, perParty, party = 1, seed = 1000L * seed + 41))
    }
    val referenceSql = AspirinCount.referenceSql
    val columns = Seq("rc")
    val fractional = Set.empty[String]

    def execute(spark: SparkSession, inputs: Map[String, DataFrame], tracer: Tracer): Execution = {
      val r = tracer.span("executor.run")(AspirinSliced.run(spark, inputs))
      Execution(
        collect = () => Seq(Seq(r.count.toDouble)),
        reportedSeconds = r.reportedSeconds,
        modeledSeconds = r.mpcModeledSeconds,
        frontierRows = r.mpcClosedRows,
        cleartextSeconds = r.localSeconds,
        mpcRealSeconds = Double.NaN,
        cost = None,
        leakage = None,
        exact = (r.count, r.mpcModeledSeconds, r.mpcClosedRows),
        plan = None,
      )
    }

    /** `AspirinSliced.run` compiles and executes internally and returns no
      * counters, so this re-runs its shared-slice MPC leg with a backend the
      * benchmark owns: slice, compile `AspirinCount` under `smcqlCompat`,
      * execute on the shared slices.
      */
    override def sidecar(spark: SparkSession, inputs: Map[String, DataFrame]): Option[Sidecar] = {
      val sliced = Slicing.slice(spark,
        Seq(
          Map("diag" -> inputs("diag1"), "med" -> inputs("med1")),
          Map("diag" -> inputs("diag2"), "med" -> inputs("med2"))),
        keyCol = "patient")
      val shared = Map(
        "diag1" -> sliced.sharedParts(0)("diag"), "med1" -> sliced.sharedParts(0)("med"),
        "diag2" -> sliced.sharedParts(1)("diag"), "med2" -> sliced.sharedParts(1)("med"))
      val tracer = new Tracer(true)
      val leg = runPlan(spark, () => AspirinCount.build(), CompileConfig.smcqlCompat, parties,
        AspirinCount.OutputName, columns, shared, tracer)
      leg.collect()
      def seconds(name: String) = tracer.spans.find(_.name == name).get.seconds
      Some(Sidecar(leg, seconds("dsl.build"), seconds("core.compile"),
        "aspirin: compile and execute run inside AspirinSliced.run; dsl/core.* and mpc.* come from a " +
          "separate AspirinCount.build() and Compiler.compile(_, smcqlCompat) and a re-run of its " +
          "shared-slice MPC leg, outside the timed queries"))
    }
  }
}
