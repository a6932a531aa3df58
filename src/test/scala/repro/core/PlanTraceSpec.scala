package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import java.security.MessageDigest

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.data.Generators
import repro.mpc._
import repro.queries._
import repro.smcql.SmcqlAspirin

import scala.io.Source

/** The plan-trace corpus: each run below is compared line by line with its
  * committed trace, `src/test/resources/traces/<run>.txt`. A trace holds the
  * run's closed rows, its `CostSnapshot`, its ordered leakage events and a
  * digest of each output. A change that keeps results, counters and leakage
  * leaves every trace as it is; re-recording a trace is a reviewed change.
  * The two hand-sliced T5 drivers (§7.4) return only a count, modeled MPC
  * seconds and closed rows or slices, so their traces hold those.
  *
  * On a mismatch the spec prints a line diff and writes the trace it got to
  * `target/plan-traces/<run>.txt`.
  */
class PlanTraceSpec extends SparkSpec {
  import PlanTraceSpec.TraceRun

  private def creditInputs(nDemo: Int, nScores: Int): Map[String, DataFrame] = Map(
    "demographics" -> Generators.demographics(spark, nDemo, nZips = 8),
    "scores1" -> Generators.creditScores(spark, nScores, nDemo, seed = 301),
    "scores2" -> Generators.creditScores(spark, nScores, nDemo, seed = 302))

  private def aspirinInputs(n: Int): Map[String, DataFrame] = Map(
    "diag1" -> Generators.diagnoses(spark, n, party = 0, overlap = 0.25, nCodes = 4),
    "diag2" -> Generators.diagnoses(spark, n, party = 1, overlap = 0.25, nCodes = 4),
    "med1" -> Generators.medications(spark, n, party = 0, overlap = 0.25, nCodes = 4),
    "med2" -> Generators.medications(spark, n, party = 1, overlap = 0.25, nCodes = 4))

  private def taxiInputs(n: Int): Map[String, DataFrame] = Map(
    "taxiA" -> Generators.taxiTrips(spark, n, seed = 401),
    "taxiB" -> Generators.taxiTrips(spark, n, seed = 402),
    "taxiC" -> Generators.taxiTrips(spark, n, seed = 403))

  private def comorbidityInputs(n: Int): Map[String, DataFrame] = Map(
    "cdiag1" -> Generators.comorbidityDiagnoses(spark, n, party = 0),
    "cdiag2" -> Generators.comorbidityDiagnoses(spark, n, party = 1))

  private val creditParties = Set(CreditRegulation.pA, CreditRegulation.pB, CreditRegulation.pC)
  private val hhiParties = Set(MarketConcentration.pA, MarketConcentration.pB, MarketConcentration.pC)

  private val runs = Seq(
    TraceRun("credit-default", () => CreditRegulation.build(trustRegulator = true),
      CompileConfig.default, creditParties, () => creditInputs(120, 80)),
    TraceRun("credit-mpcOnly", () => CreditRegulation.build(trustRegulator = true),
      CompileConfig.mpcOnly, creditParties, () => creditInputs(120, 80)),
    TraceRun("aspirin-smcqlCompat", () => AspirinCount.build(), CompileConfig.smcqlCompat,
      Set(AspirinCount.pH1, AspirinCount.pH2), () => aspirinInputs(200)),
    TraceRun("hhi-default", () => MarketConcentration.build(), CompileConfig.default, hhiParties,
      () => taxiInputs(300)),
    TraceRun("hhi-mpcOnly", () => MarketConcentration.build(), CompileConfig.mpcOnly, hhiParties,
      () => taxiInputs(100)),
    // The order-by and limit run under MPC: the sorted-limit path.
    TraceRun("comorbidity-default", () => Comorbidity.build(), CompileConfig.default,
      Set(Comorbidity.pH1, Comorbidity.pH2), () => comorbidityInputs(200)),
    // The fare filter stays under MPC.
    TraceRun("hhi-smcqlCompat", () => MarketConcentration.build(), CompileConfig.smcqlCompat,
      hhiParties, () => taxiInputs(100)),
    // A Cartesian join over the closed concats.
    TraceRun("aspirin-mpcOnly", () => AspirinCount.build(), CompileConfig.mpcOnly,
      Set(AspirinCount.pH1, AspirinCount.pH2), () => aspirinInputs(40)),
    // A full-MPC sort and limit.
    TraceRun("comorbidity-mpcOnly", () => Comorbidity.build(), CompileConfig.mpcOnly,
      Set(Comorbidity.pH1, Comorbidity.pH2), () => comorbidityInputs(60)),
    // SMCQL's comorbidity (T6) on the garbled-circuit ObliVM backend: gates
    // and peak memory.
    TraceRun("comorbidity-oblivm", () => Comorbidity.build(), CompileConfig.default,
      Set(Comorbidity.pH1, Comorbidity.pH2), () => comorbidityInputs(60), MpcBackend.oblivm(_)),
    // A public join and a preSorted distinct.
    TraceRun("aspirin-default", () => AspirinCount.build(), CompileConfig.default,
      Set(AspirinCount.pH1, AspirinCount.pH2), () => aspirinInputs(200)),
    TraceRun("credit-smcqlCompat", () => CreditRegulation.build(trustRegulator = true),
      CompileConfig.smcqlCompat, creditParties, () => creditInputs(120, 80)),
    // No trust annotation: a Cartesian join and the grouped SUM and COUNT
    // folds under MPC.
    TraceRun("credit-untrusted", () => CreditRegulation.build(trustRegulator = false),
      CompileConfig.default, creditParties, () => creditInputs(60, 40)),
    TraceRun("hhi-revenue", () => MarketConcentration.buildRevenueOnly(), CompileConfig.default,
      hhiParties, () => taxiInputs(300)),
    TraceRun("comorbidity-smcqlCompat", () => Comorbidity.build(), CompileConfig.smcqlCompat,
      Set(Comorbidity.pH1, Comorbidity.pH2), () => comorbidityInputs(200)),
    TraceRun("comorbidity-counts", () => Comorbidity.buildCountsOnly(), CompileConfig.default,
      Set(Comorbidity.pH1, Comorbidity.pH2), () => comorbidityInputs(200)),
  )

  private val driverRuns: Seq[(String, () => Seq[String])] = Seq(
    "aspirin-sliced" -> { () =>
      val r = AspirinSliced.run(spark, aspirinInputs(120))
      Seq(s"count ${r.count}", s"closed_rows ${r.mpcClosedRows}", s"modeled_s ${r.mpcModeledSeconds}")
    },
    "aspirin-smcql" -> { () =>
      val r = SmcqlAspirin.run(spark, aspirinInputs(120))
      Seq(s"count ${r.count}", s"slices ${r.slices}", s"modeled_s ${r.mpcModeledSeconds}")
    },
  )

  private def parties(to: Set[Party]): String = to.map(_.name).toSeq.sorted.mkString("{", ",", "}")

  private def event(e: LeakageEvent): String = e match {
    case CardinalityLeak(rel, rows, to) => s"cardinality $rel $rows ${parties(to)}"
    case ColumnLeak(rel, col, to)       => s"column $rel $col ${parties(to)}"
    case RelationLeak(rel, to)          => s"relation $rel ${parties(to)}"
  }

  /** Row count and SHA-256 prefix of an output's rows, sorted, so the digest
    * does not depend on the order in which the rows were revealed.
    */
  private def digest(df: DataFrame): String = {
    val rows = df.collect().map(_.toSeq.mkString(",")).sorted
    val sha = MessageDigest.getInstance("SHA-256").digest(rows.mkString("\n").getBytes(UTF_8))
    s"rows=${rows.length} sha256=${sha.take(8).map("%02x".format(_)).mkString}"
  }

  private def trace(run: TraceRun): Seq[String] = {
    val plan = Compiler.compile(run.dag(), run.config)
    val res = new Executor(spark, run.backend(run.parties)).run(plan, run.inputs())
    val cost = res.metrics.cost
    Seq(
      s"closed_rows ${res.metrics.closedRows}",
      s"cost rowsTouched=${cost.rowsTouched} eqs=${cost.eqs} cmps=${cost.cmps} muls=${cost.muls} " +
        s"rounds=${cost.rounds} shuffledElems=${cost.shuffledElems} gates=${cost.gates} " +
        s"setups=${cost.setups} peakMemBytes=${cost.peakMemBytes}",
      s"modeled_s ${cost.modeledSeconds}",
    ) ++ res.leakage.events.map(event) ++
      res.outputs.toSeq.sortBy(_._1).map { case (name, df) => s"output $name ${digest(df)}" }
  }

  for ((name, lines) <- runs.map(run => run.name -> (() => trace(run))) ++ driverRuns)
    test(s"$name matches its committed trace") {
      val got = (s"run $name" +: lines()).toIndexedSeq
      val resource = Option(getClass.getResourceAsStream(s"/traces/$name.txt"))
      val want = resource.map { s =>
        val src = Source.fromInputStream(s, "UTF-8")
        try src.getLines().toIndexedSeq finally src.close()
      }.getOrElse(IndexedSeq.empty)
      if (got != want) {
        val dir = Files.createDirectories(Paths.get("target", "plan-traces"))
        Files.write(dir.resolve(s"$name.txt"), got.mkString("", "\n", "\n").getBytes(UTF_8))
        fail(s"$name differs from traces/$name.txt" +
          (if (resource.isEmpty) " (no committed trace)" else "") +
          s"; got written to target/plan-traces:\n${PlanTraceSpec.lineDiff(want, got).mkString("\n")}")
      }
    }
}

object PlanTraceSpec {
  private final case class TraceRun(name: String, dag: () => Dag, config: CompileConfig,
      parties: Set[Party], inputs: () => Map[String, DataFrame],
      backend: Set[Party] => MpcBackend = MpcBackend.sharemind(_))

  /** `-`/`+` lines where `got` differs from `want`, from their longest
    * common subsequence, each with its line number in `want` or `got`.
    */
  private[core] def lineDiff(want: IndexedSeq[String], got: IndexedSeq[String]): Seq[String] = {
    val lcs = Array.ofDim[Int](want.length + 1, got.length + 1)
    for (i <- want.indices.reverse; j <- got.indices.reverse)
      lcs(i)(j) = if (want(i) == got(j)) lcs(i + 1)(j + 1) + 1 else math.max(lcs(i + 1)(j), lcs(i)(j + 1))
    val out = Seq.newBuilder[String]
    var i = 0; var j = 0
    while (i < want.length || j < got.length) {
      if (i < want.length && j < got.length && want(i) == got(j)) { i += 1; j += 1 }
      else if (j < got.length && (i == want.length || lcs(i)(j + 1) >= lcs(i + 1)(j))) {
        out += f"+${j + 1}%4d ${got(j)}"; j += 1
      } else { out += f"-${i + 1}%4d ${want(i)}"; i += 1 }
    }
    out.result()
  }
}
