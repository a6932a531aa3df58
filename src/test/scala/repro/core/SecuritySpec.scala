package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.data.Generators
import repro.mpc._
import repro.queries._

/** End-to-end leakage profiles: each compiled query must reveal exactly what
  * the paper's security analysis authorizes (§3.2, §5.2, §5.3, Appendix A)
  * and nothing else.
  */
class SecuritySpec extends SparkSpec {

  private def run(dag: Dag, config: CompileConfig, inputs: Map[String, DataFrame],
      parties: Set[Party]): ExecResult =
    new Executor(spark, MpcBackend.sharemind(parties))
      .run(Compiler.compile(dag, config), inputs)

  private def creditInputs(n: Int): Map[String, DataFrame] = Map(
    "demographics" -> Generators.demographics(spark, n, nZips = 5),
    "scores1" -> Generators.creditScores(spark, n, n, seed = 1),
    "scores2" -> Generators.creditScores(spark, n, n, seed = 2))

  test("MPC-only plans leak no column values to anyone") {
    val res = run(CreditRegulation.build(trustRegulator = true, withAvg = false),
      CompileConfig.mpcOnly, creditInputs(60),
      Set(CreditRegulation.pA, CreditRegulation.pB, CreditRegulation.pC))
    assert(res.leakage.columns.isEmpty,
      s"MPC-only must reveal no columns: ${res.leakage.columns}")
    // Only input cardinalities (public by the standard MPC treatment) plus
    // operator output sizes, and the final output relation.
    assert(res.leakage.relations.nonEmpty)
  }

  test("hybrid credit query: the regulator sees only SSN-derived key columns") {
    val res = run(CreditRegulation.build(trustRegulator = true, withAvg = false),
      CompileConfig.default, creditInputs(80),
      Set(CreditRegulation.pA, CreditRegulation.pB, CreditRegulation.pC))
    val seenByA = res.leakage.columnsSeenBy(CreditRegulation.pA).map(_._2)
    assert(seenByA.nonEmpty)
    // ssn (join keys) and zip (group keys / zip-join keys) are derivable
    // from A's authorized inputs; score never is.
    assert(seenByA.forall(c => c.contains("ssn") || c.contains("zip")), seenByA.toString)
    assert(res.leakage.columnsSeenBy(CreditRegulation.pB).isEmpty,
      "agencies must see no revealed columns")
    assert(res.leakage.columnsSeenBy(CreditRegulation.pC).isEmpty)
  }

  test("aspirin: only the public patient column is ever revealed, to everyone") {
    val inputs = Map(
      "diag1" -> Generators.diagnoses(spark, 200, 0, nCodes = 4),
      "diag2" -> Generators.diagnoses(spark, 200, 1, nCodes = 4),
      "med1" -> Generators.medications(spark, 200, 0, nCodes = 4),
      "med2" -> Generators.medications(spark, 200, 1, nCodes = 4))
    val res = run(AspirinCount.build(), CompileConfig.smcqlCompat, inputs,
      Set(AspirinCount.pH1, AspirinCount.pH2))
    assert(res.leakage.columns.nonEmpty)
    res.leakage.columns.foreach { c =>
      assert(c.column.endsWith("patient"), s"only patient IDs may leak: $c")
      assert(c.to == Set(AspirinCount.pH1, AspirinCount.pH2), s"public keys go to all: $c")
    }
  }

  test("market concentration: no private column ever leaks (no trust annotations)") {
    val inputs = MarketConcentration.InputNames.zipWithIndex.map { case (nm, i) =>
      nm -> Generators.taxiTrips(spark, 300, seed = 40 + i)
    }.toMap
    val res = run(MarketConcentration.build(), CompileConfig.default, inputs,
      Set(MarketConcentration.pA, MarketConcentration.pB, MarketConcentration.pC))
    // The only revealed column is the synthetic constant join key "k"
    // (a public literal the compiler correctly classifies as
    // everyone-trusted, turning the scalar join into a public join);
    // revenue/price/company values never leak.
    res.leakage.columns.foreach { c =>
      assert(c.column.endsWith(":k"), s"only the constant key may be revealed: $c")
    }
  }

  test("push-down consent gates the extra cardinality leakage") {
    def cardinalities(config: CompileConfig): Int = {
      val inputs = Map(
        "cdiag1" -> Generators.comorbidityDiagnoses(spark, 120, 0),
        "cdiag2" -> Generators.comorbidityDiagnoses(spark, 120, 1))
      run(Comorbidity.buildCountsOnly(), config, inputs,
        Set(Comorbidity.pH1, Comorbidity.pH2)).leakage.cardinalities.size
    }
    // With consent, the split reveals each party's distinct-key count (the
    // local pre-aggregation sizes) — strictly more cardinality events than
    // the unsplit plan's single input close per party.
    val withConsent = cardinalities(CompileConfig.default)
    val withoutConsent = cardinalities(CompileConfig.default.copy(allowCardinalityLeak = false))
    assert(withConsent >= withoutConsent,
      s"consent=$withConsent noconsent=$withoutConsent")
  }

  test("the MPC aggregation hides which rows formed each group") {
    // Two different validity patterns with the same group structure must
    // produce identical leakage traces (only the group count is revealed).
    def trace(filterVal: Double): Seq[Long] = {
      val b = MpcBackend.sharemind(Set(Party("a"), Party("b")))
      val rows = (1 to 12).map(i => Seq((i % 3).toDouble, i.toDouble))
      val f = b.filter(b.closeRows("in", Seq("k", "v"), rows), "v", CmpOp.Neq, Right(filterVal))
      b.aggregate("agg", f, Seq("k"), Seq(AggSpec(AggFn.Sum, Some("v"), "s")))
      b.leakage.cardinalities.map(_.rows)
    }
    assert(trace(5.0) == trace(8.0), "leakage must be independent of which rows matched")
  }

  test("shares held by any single party are independent of the secret") {
    // Empirically: the first share of encode(0) and encode(10^9) are drawn
    // from the same (uniform) distribution — sanity-check via mean of high bits.
    val meter = new CostMeter(CostParams.Sharemind)
    val e = new SecretSharingEngine(99L, meter)
    def bias(x: Long): Double = {
      val n = 2000
      (1 to n).count { _ =>
        e.input(Array(x)).asInstanceOf[ShareCol].s1(0) < 0
      }.toDouble / n
    }
    assert(math.abs(bias(0L) - bias(1000000000L)) < 0.1)
  }

  test("each query output is revealed by exactly one relation leak, under its own name") {
    val taxi = MarketConcentration.InputNames.zipWithIndex.map { case (nm, i) =>
      nm -> Generators.taxiTrips(spark, 30, seed = 40 + i)
    }.toMap
    val clear = new Dag
    val q = new Dsl(clear)
    q.table("t", Party("a"), q.col("k"), q.col("v")).sum(Seq("k"), "v", "s").writeTo("out", Party("a"))
    val runs = Seq(
      run(MarketConcentration.build(), CompileConfig.mpcOnly, taxi,
        Set(MarketConcentration.pA, MarketConcentration.pB, MarketConcentration.pC)),
      run(CreditRegulation.build(trustRegulator = true, withAvg = true), CompileConfig.default,
        creditInputs(60), Set(CreditRegulation.pA, CreditRegulation.pB, CreditRegulation.pC)),
      run(clear, CompileConfig.default, Map("t" -> Generators.keyed(spark, 30, 5)), Set(Party("a"))))
    runs.foreach { res =>
      assert(res.leakage.relations.map(_.relation).sorted == res.outputs.keys.toSeq.sorted,
        res.leakage.relations)
    }
  }

  test("reveal of a filtered relation discloses only the surviving rows") {
    val b = MpcBackend.sharemind(Set(Party("a"), Party("b")))
    val rows = (1 to 10).map(i => Seq(i.toDouble))
    val f = b.filter(b.closeRows("in", Seq("v"), rows), "v", CmpOp.Leq, Right(4.0))
    val out = b.reveal("out", f, Set(Party("a")))
    assert(out.map(_.head).sorted == Seq(1.0, 2.0, 3.0, 4.0))
    // The relation leak targets only the recipient.
    assert(b.leakage.relations.exists(r => r.relation == "out" && r.to == Set(Party("a"))))
  }
}
