package repro.eval

import repro.SparkSpec
import repro.core.CompileConfig
import repro.mpc._
import repro.mpc.MpcTestKit._
import repro.queries.Comorbidity
import repro.smcql.SmcqlAspirin

/** Benchmark harness plumbing: table rendering, the table registry, the
  * two-hour cap, the cost predictors its pre-checks use, and the BenchPoint
  * cell format used in EXPERIMENTS.md.
  */
class EvalSpec extends SparkSpec {

  test("BenchPoint renders seconds, notes, and failures") {
    assert(BenchPoint("s", 10, Some(1.234)).cell == "1.2")
    assert(BenchPoint("s", 10, Some(1.234), "warm").cell == "1.2 (warm)")
    assert(BenchPoint("s", 10, None, "OOM").cell == "OOM")
    assert(BenchPoint("s", 10, None, ">2h").cell == ">2h")
  }

  test("Bench.table lays out sizes x systems with gaps as dashes") {
    val t = Bench.table("demo", Seq(
      BenchPoint("sys1", 100, Some(1.0)),
      BenchPoint("sys2", 100, Some(2.0)),
      BenchPoint("sys1", 1000, None, "OOM")))
    val lines = t.linesIterator.toSeq
    assert(lines.head == "### demo")
    assert(lines(1).contains("sys1") && lines(1).contains("sys2"))
    assert(lines(2).startsWith("100") && lines(2).contains("1.0") && lines(2).contains("2.0"))
    assert(lines(3).startsWith("1000") && lines(3).contains("OOM") && lines(3).contains("—"))
  }

  test("Bench.timed measures elapsed wall time") {
    val (v, secs) = Bench.timed { Thread.sleep(30); 42 }
    assert(v == 42 && secs >= 0.02 && secs < 5.0)
  }

  test("Bench.capped skips, caps and reports out-of-memory") {
    var ran = false
    assert(Bench.capped("s", 1, 7201.0) { ran = true; 1.0 } == BenchPoint("s", 1, None, ">2h"))
    assert(!ran, "a point predicted past the cap must not run")
    assert(Bench.capped("s", 1, 10.0)(7200.5) == BenchPoint("s", 1, None, ">2h"))
    assert(Bench.capped("s", 1, 10.0)(20.0) == BenchPoint("s", 1, Some(20.0)))
    assert(Bench.capped("s", 1, 0.0)(throw MpcOutOfMemory("b", "op", 2, 1)) ==
      BenchPoint("s", 1, None, "OOM"))
  }

  // ------------------------------------------------------------ registry

  private val ids = Seq("T1a", "T1b", "T1c", "T2", "T3a", "T3b", "T4", "T5", "T6")

  test("every registry id resolves") {
    assert(Tables.all.map(_.id) == ids)
    ids.foreach { id =>
      val t = Tables.byId(id).getOrElse(fail(s"no table $id"))
      assert(t.title.startsWith(id + " "), t.title)
      assert(Tables.parse(Seq(id)) == Right((t, t.sizes)))
    }
    val t2 = Tables.byId("T2").get
    assert(Tables.parse(Seq("T2", "1000", "5")) == Right((t2, Sizes(1000, 5))))
  }

  test("the entrypoint rejects an unknown id or a bad size, listing the valid ids") {
    for (args <- Seq(Seq(), Seq("T7"), Seq("T2", "1k"), Seq("T2", "0"), Seq("T2", "-5")))
      Tables.parse(args) match {
        case Left(message) => ids.foreach(id => assert(message.contains(id), message))
        case Right(parsed) => fail(s"$args parsed as $parsed")
      }
  }

  // ---------------------------------------------------------- predictors

  /** The counters charged by `op` alone on `b`, peak memory excluded. */
  private def metered(b: MpcBackend)(op: => Any): CostSnapshot = {
    b.meter.reset()
    op
    b.meter.snapshot.copy(peakMemBytes = 0)
  }

  private def testRel(b: MpcBackend, n: Int, valid: Boolean): SharedRelation = {
    val rnd = new scala.util.Random(n)
    val r = rel(b, Seq("k1", "k2", "v"), Seq.fill(n)(Seq.fill(3)(rnd.nextInt(10).toDouble)))
    if (valid) r.copy(validity = Some(b.engine.input(Array.fill(n)(rnd.nextInt(2).toLong))))
    else r
  }

  test("the sort predictor equals the metered counters") {
    val keySets = Seq(Seq("k1" -> true), Seq("k1" -> false), Seq("k1" -> true, "k2" -> false))
    val small =
      for (n <- Seq(2, 3, 7, 8, 9, 13); keys <- keySets; valid <- Seq(false, true))
        yield (n, keys, valid)
    // Either side of 2^11 and 2^12, on ties and a validity column.
    val large = Seq(2047, 2048, 2049, 4095, 4096, 4097).map(n => (n, keySets(2), true)) ++
      Seq((9999, keySets(0), false))
    for ((n, keys, valid) <- small ++ large; b <- Seq(sharemind(), oblivc())) {
      val r = testRel(b, n, valid)
      lazy val sorted = b.sort(r, keys)
      val got = metered(b)(sorted)
      val predicted = CostModel.sort(b.meter.params, n, width = 3, ascending = keys.map(_._2),
        validity = valid)
      val label = s"${b.meter.params.name} n=$n keys=$keys validity=$valid"
      assert(got == predicted, label)
      // By position (a reveal shuffles): valid rows first, in key order.
      val flags = b.engine.idealOpen(sorted.validity.getOrElse(b.engine.constant(1L, n)))
      val kept = flags.count(_ == 1L)
      assert(flags.take(kept).forall(_ == 1L) && flags.drop(kept).forall(_ == 0L), label)
      val cols = keys.map { case (c, asc) => (b.engine.idealOpen(sorted.col(c)), if (asc) 1L else -1L) }
      val rowKeys = (0 until kept).map(i => cols.map { case (xs, sign) => sign * xs(i) })
      assert(rowKeys == rowKeys.sorted(Ordering.Implicits.seqOrdering[Seq, Long]), label)
    }
  }

  test("at a power of two the sort runs the closed-form count of compare-exchanges") {
    for (log <- 1 to 24) {
      val p = 1L << log
      val exchanges = (log * log - log + 4) * p / 4 - 1
      assert(Oblivious.sortPairs(p) == exchanges, s"p=$p")
      // One comparison per key, one equality test per key that another follows.
      for (keys <- 1 to 2; validity <- Seq(false, true)) {
        val sm = CostModel.sort(CostParams.Sharemind, p, 2, Seq.fill(keys)(true), validity)
        assert((sm.rowsTouched, sm.eqs, sm.cmps) == ((p, (keys - 1) * exchanges, keys * exchanges)),
          s"p=$p keys=$keys validity=$validity")
      }
      assert(CostModel.sort(CostParams.OblivC, p, 2, Seq(true), validity = false).rowsTouched == p,
        s"p=$p")
    }
  }

  test("the sort predictor reproduces the pinned golden sort counters") {
    def sm(n: Long, validity: Boolean, asc: Boolean*) =
      CostModel.sort(CostParams.Sharemind, n, 2, asc, validity)
    def oc(n: Long, validity: Boolean, asc: Boolean*) =
      CostModel.sort(CostParams.OblivC, n, 2, asc, validity)
    assert(sm(13, false, true) ==
      CostSnapshot(13L, 0L, 48L, 96L, 0L, 0L, 0L, 0L, 0L, 0.017192000000000002))
    assert(sm(13, true, true, false) ==
      CostSnapshot(13L, 48L, 96L, 336L, 0L, 0L, 0L, 0L, 0L, 0.032743999999999995))
    assert(oc(13, false, true) == CostSnapshot(13L, 0L, 0L, 0L, 0L, 0L, 27648L, 0L, 0L, 0.028298))
    assert(oc(13, true, true, false) ==
      CostSnapshot(13L, 0L, 0L, 0L, 0L, 0L, 79872L, 0L, 0L, 0.080522))
    val big = sm(9999, true, true)
    assert((big.rowsTouched, big.eqs, big.cmps, big.muls) == (9999L, 0L, 456195L, 2280975L))
  }

  test("the join predictor's equality count equals the metered count") {
    for ((n, m) <- Seq((1, 1), (7, 13), (40, 25)); keys <- Seq(1, 2)) {
      val b = sharemind()
      val l = testRel(b, n, valid = true); val r = testRel(b, m, valid = false)
      val k = Seq("k1", "k2").take(keys)
      val got = metered(b)(b.join("j", l, r, k, k))
      assert(got.eqs == CostModel.cartesianJoin(b.meter.params, n, m, keys).eqs, s"$n x $m, $keys")
    }
  }

  test("aggregation estimate grows superlinearly and respects the cap") {
    def e(n: Long) =
      CostModel.sort(CostParams.Sharemind, n, 2, Seq(true), validity = false).modeledSeconds
    assert(e(100000) > 10 * e(10000))
    assert(e(10000000) > Bench.TimeoutSeconds)
  }

  test("ObliVM sort estimate reproduces the paper's one-hour-plus anchor") {
    // ~4k pre-aggregated rows entering MPC (20k total at 10% distinct keys,
    // both parties) must land beyond an hour (§7.4: SMCQL >1h at the 20k mark).
    assert(CostModel.sort(CostParams.ObliVM, 4000, 2, Seq(true), validity = false)
      .modeledSeconds > 3600)
  }

  test("microbenchmark pre-checks skip hopeless sizes without executing") {
    val pts = Fig1Microbench.run(null, Fig1Microbench.JoinOp, Seq(1000000L), Seq.empty)
    assert(pts.forall(p => p.seconds.isEmpty && p.note == ">2h"),
      s"1M-record MPC join must be pre-checked to >2h: $pts")
  }

  // ------------------------------------------- pre-checks are lower bounds

  // A pre-check may only print >2h for a point that would not finish under
  // the cap, so each guard's prediction must not exceed the modeled seconds
  // of the run it guards.

  private def atMost(predicted: Double, modeled: Double, what: String): Unit =
    assert(predicted <= modeled, s"$what: predicted $predicted s > metered $modeled s")

  private def seconds(pts: Seq[BenchPoint], sys: String): Double =
    pts.find(_.system == sys).flatMap(_.seconds).getOrElse(fail(s"no measured $sys point"))

  test("T1 guards are lower bounds on both backends") {
    import Fig1Microbench.{AggOp, JoinOp, ProjectOp, predicted}
    for (op <- Seq(AggOp, JoinOp, ProjectOp); n <- Seq(1000L, 2000L)) {
      val pts = Fig1Microbench.run(spark, op, Seq(n), Seq.empty)
      atMost(predicted(CostParams.Sharemind, op, n), seconds(pts, "sharemind"), s"${op.name}@$n")
      atMost(predicted(CostParams.OblivC, op, n), seconds(pts, "obliv-c"), s"${op.name}@$n")
    }
  }

  test("T2 Sharemind-only guard is a lower bound") {
    val n = 2000L
    val res = Fig4MarketConc.runHhi(spark, Fig4MarketConc.inputs(spark, n), CompileConfig.mpcOnly)
    atMost(Fig4MarketConc.sharemindOnlyPredicted(n), res.metrics.mpcModeledSeconds, "T2")
  }

  test("T3 MPC join and MPC aggregation guards are lower bounds") {
    atMost(Fig5Hybrid.mpcJoinPredicted(1000),
      seconds(Fig5Hybrid.runJoins(Seq(1000L)), "mpc-join"), "T3a")
    atMost(Fig5Hybrid.mpcAggPredicted(2000),
      seconds(Fig5Hybrid.runAggs(Seq(2000L)), "mpc-agg"), "T3b")
  }

  test("T4 Sharemind-only guard is a lower bound") {
    val n = 2000L
    val res = Fig6Credit.runCredit(spark, Fig6Credit.inputs(spark, n), trustRegulator = false)
    atMost(Fig6Credit.sharemindOnlyPredicted(n), res.metrics.mpcModeledSeconds, "T4")
  }

  test("T5 and T6 SMCQL guards are lower bounds") {
    val n = 1000L
    atMost(Fig7Smcql.smcqlAspirinPredicted(n),
      SmcqlAspirin.run(spark, Fig7Smcql.aspirinInputs(spark, n)).mpcModeledSeconds, "T5")
    atMost(Fig7Smcql.smcqlComorbidityPredicted(n),
      Bench.runConclave(spark, Comorbidity.build(), CompileConfig.default,
        Fig7Smcql.comorbidityInputs(spark, n), Set(Comorbidity.pH1, Comorbidity.pH2),
        MpcBackend.oblivm(_)).metrics.mpcModeledSeconds, "T6")
  }
}
