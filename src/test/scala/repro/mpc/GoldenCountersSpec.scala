package repro.mpc

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SparkSpec
import repro.core._
import repro.queries.{CreditRegulation, MarketConcentration}
import MpcTestKit._

/** Golden counters: the exact `CostSnapshot` and `LeakageLog` multiset of
  * every oblivious operator and protocol, on both engine families, and of
  * two end-to-end plans. Any change to the MPC substrate must keep these
  * bit-identical: they are what the cost model turns into modeled seconds
  * and what the security argument says is revealed.
  */
class GoldenCountersSpec extends SparkSpec {
  import GoldenCountersSpec._

  /** Deterministic integer-valued rows: column c draws from 0..maxes(c). */
  private def rows(n: Int, seed: Long, maxes: Int*): Seq[Seq[Double]] = {
    val rnd = new scala.util.Random(seed)
    Seq.fill(n)(maxes.map(m => rnd.nextInt(m + 1).toDouble))
  }

  /** A relation `(k, v)` with no rows, behind a literal filter. */
  private def empty(b: MpcBackend): SharedRelation =
    b.filter(rel(b, Seq("k", "v"), Seq.empty), "v", CmpOp.Gt, Right(0.0))

  /** Counters and leakage of `op` alone (setup costs are cleared first). */
  private def capture(b: MpcBackend)(op: => Any): Golden = {
    b.meter.reset(); b.leakage.clear()
    op
    Golden(b.meter.snapshot, leakMultiset(b.leakage.events))
  }

  private def check(label: String, got: Golden): Unit = {
    assert(Expected.get(label).contains(got), s"$label changed; now:\n\"$label\" -> ${got.literal}")
  }

  private val engines: Seq[(String, () => MpcBackend)] =
    Seq("sharemind" -> (() => sharemind()), "obliv-c" -> (() => oblivc()))

  private def op(name: String)(run: MpcBackend => Golden) = name -> run

  /** Operator cases, run on a fresh backend each. */
  private val cases: Seq[(String, MpcBackend => Golden)] = Seq(
    op("shuffle") { b =>
      val r = rel(b, Seq("a", "b2", "c"), rows(10, 1, 9, 9, 9))
      capture(b)(Oblivious.shuffle(b.engine, r))
    },
    op("sortBy n=13 without validity") { b =>
      val r = rel(b, Seq("k", "v"), rows(13, 2, 5, 99))
      capture(b)(b.sort(r, Seq("k" -> true)))
    },
    op("sortBy n=13 with validity, two keys") { b =>
      val f = b.filter(rel(b, Seq("k", "v"), rows(13, 3, 5, 99)), "k", CmpOp.Neq, Right(3.0))
      capture(b)(Oblivious.sortBy(b.engine, f,
        Seq(Oblivious.SortKey(0), Oblivious.SortKey(1, ascending = false))))
    },
    op("filter literal and column") { b =>
      val r = rel(b, Seq("a", "b2"), rows(11, 4, 9, 9))
      capture(b)(b.filter(b.filter(r, "a", CmpOp.Geq, Right(4.0)), "a", CmpOp.Lt, Left("b2")))
    },
  ) ++ Seq(AggFn.Sum, AggFn.Count, AggFn.Min, AggFn.Max).flatMap { fn =>
    val aggCol = if (fn == AggFn.Count) None else Some("v")
    Seq(
      op(s"aggregate $fn with validity") { b =>
        val f = b.filter(rel(b, Seq("k", "v"), rows(20, 5, 4, 50)), "v", CmpOp.Gt, Right(10.0))
        capture(b)(b.aggregate("agg", f, Seq("k"), Seq(AggSpec(fn, aggCol, "out"))))
      },
      op(s"globalAggregate $fn with validity") { b =>
        val f = b.filter(rel(b, Seq("v"), rows(15, 6, 50)), "v", CmpOp.Leq, Right(30.0))
        capture(b)(b.globalAggregate(f, Seq(AggSpec(fn, aggCol, "out"))))
      },
      op(s"hybridAggregate $fn with validity") { b =>
        val f = b.filter(rel(b, Seq("k", "v"), rows(20, 7, 4, 50)), "v", CmpOp.Gt, Right(10.0))
        capture(b)(b.hybridAggregate("hagg", f, Seq("k"), Seq(AggSpec(fn, aggCol, "out")), pC))
      },
    )
  } ++ Seq(
    op("aggregate preSorted") { b =>
      val r = rel(b, Seq("k", "v"), rows(12, 8, 3, 50).sortBy(_.head))
      capture(b)(b.aggregate("agg", r, Seq("k"), Seq(AggSpec(AggFn.Sum, Some("v"), "out")),
        preSorted = true))
    },
    op("distinct with validity") { b =>
      val f = b.filter(rel(b, Seq("k", "v"), rows(14, 9, 3, 2)), "v", CmpOp.Neq, Right(1.0))
      capture(b)(b.distinct(f, preSorted = false))
    },
    op("distinct preSorted") { b =>
      val r = rel(b, Seq("k"), rows(14, 10, 4).sortBy(_.head))
      capture(b)(b.distinct(r, preSorted = true))
    },
    op("cartesianJoin with validity") { b =>
      val l = b.filter(rel(b, Seq("k", "x"), rows(8, 11, 4, 9)), "x", CmpOp.Gt, Right(2.0))
      val r = rel(b, Seq("k", "y"), rows(9, 12, 4, 9))
      capture(b)(b.join("cj", l, r, Seq("k"), Seq("k")))
    },
    op("select") { b =>
      val r = rel(b, Seq("i", "v"), rows(10, 13, 9, 99))
      capture(b)(Oblivious.select(b.engine, r, b.engine.input(Array(3L, 7L, 0L, 7L))))
    },
    op("hybridJoin with validity") { b =>
      val l = b.filter(rel(b, Seq("k", "x"), rows(12, 14, 6, 9)), "x", CmpOp.Neq, Right(5.0))
      val r = rel(b, Seq("k", "y"), rows(10, 15, 6, 9))
      capture(b)(b.hybridJoin("hj", l, r, Seq("k"), Seq("k"), pC))
    },
    op("hybridAggregate over a hybridJoin output") { b =>
      val hj = b.hybridJoin("hj", rel(b, Seq("k", "x"), rows(12, 23, 6, 9)),
        rel(b, Seq("k", "y"), rows(10, 24, 6, 9)), Seq("k"), Seq("k"), pC)
      capture(b)(b.hybridAggregate("hagg", hj, Seq("k"), Seq(AggSpec(AggFn.Sum, Some("y"), "out")), pC))
    },
    op("publicJoin") { b =>
      val l = rel(b, Seq("k", "x"), rows(10, 16, 6, 9))
      val r = rel(b, Seq("k", "y"), rows(9, 17, 6, 9))
      capture(b)(b.publicJoin("pj", l, r, Seq("k"), Seq("k")))
    },
    op("reveal with validity") { b =>
      val f = b.filter(rel(b, Seq("a", "b2"), rows(9, 18, 9, 9)), "a", CmpOp.Lt, Right(5.0))
      capture(b)(b.reveal("rv", f, Set(pA)))
    },
  ) ++ Seq(
    // Every operator on a relation with no rows (a filtered one, so it
    // carries a validity column), beside a 6-row right side for the joins.
    op("aggregate on 0 rows") { b =>
      val e = empty(b)
      capture(b)(b.aggregate("agg", e, Seq("k"), Seq(AggSpec(AggFn.Sum, Some("v"), "out"))))
    },
    op("globalAggregate Min on 0 rows") { b =>
      val e = empty(b)
      capture(b)(b.globalAggregate(e, Seq(AggSpec(AggFn.Min, Some("v"), "out"))))
    },
    op("distinct on 0 rows") { b =>
      val e = empty(b)
      capture(b)(b.distinct(e, preSorted = false))
    },
    op("compact on 0 rows") { b =>
      val e = empty(b)
      capture(b)(b.compact("cp", e))
    },
    op("reveal on 0 rows") { b =>
      val e = empty(b)
      capture(b)(b.reveal("rv", e, Set(pA)))
    },
    op("join on 0 rows") { b =>
      val e = empty(b); val r = rel(b, Seq("k", "y"), rows(6, 20, 4, 9))
      capture(b)(b.join("cj", e, r, Seq("k"), Seq("k")))
    },
    op("sorted limit on 0 rows") { b =>
      val e = empty(b)
      capture(b)(b.limit("lim", e, 3, sorted = true))
    },
    op("compacting limit on 0 rows") { b =>
      val e = empty(b)
      capture(b)(b.limit("lim", e, 3, sorted = false))
    },
    op("hybridAggregate on 0 rows") { b =>
      val e = empty(b)
      capture(b)(b.hybridAggregate("hagg", e, Seq("k"), Seq(AggSpec(AggFn.Sum, Some("v"), "out")), pC))
    },
    op("hybridJoin on 0 rows") { b =>
      val e = empty(b); val r = rel(b, Seq("k", "y"), rows(6, 21, 4, 9))
      capture(b)(b.hybridJoin("hj", e, r, Seq("k"), Seq("k"), pC))
    },
    op("publicJoin on 0 rows") { b =>
      val e = empty(b); val r = rel(b, Seq("k", "y"), rows(6, 22, 4, 9))
      capture(b)(b.publicJoin("pj", e, r, Seq("k"), Seq("k")))
    },
  )

  for ((engine, mk) <- engines; (name, run) <- cases) {
    test(s"$engine: $name") {
      check(s"$engine: $name", run(mk()))
    }
  }

  test("sharemind: sortBy 9999 x 2 with validity (the hhi-mpc sort)") {
    val b = sharemind()
    val f = b.filter(rel(b, Seq("companyID", "price"), rows(9999, 19, 4, 4000)),
      "price", CmpOp.Gt, Right(0.0))
    val got = capture(b)(b.sort(f, Seq("companyID" -> true)))
    check("sharemind: sortBy 9999 x 2", got)
    assert((got.cost.rowsTouched, got.cost.eqs, got.cost.cmps, got.cost.muls) ==
      ((9999L, 0L, 456195L, 2280975L)))
  }

  test("sharemind: hybridAggregate over a hybridJoin output shuffles once fewer than the two apart") {
    // The join's output is fresh; handed over stale, the aggregation
    // shuffles its m rows of (k, y) again: m·⌈log₂ m⌉·2 elements, 3 rounds.
    def run(fresh: Boolean): (Long, Golden) = {
      val b = sharemind()
      val hj = b.hybridJoin("hj", rel(b, Seq("k", "x"), rows(12, 23, 6, 9)),
        rel(b, Seq("k", "y"), rows(10, 24, 6, 9)), Seq("k"), Seq("k"), pC)
      assert(hj.fresh)
      (hj.size.toLong, capture(b)(b.hybridAggregate("hagg", if (fresh) hj else hj.copy(fresh = false),
        Seq("k"), Seq(AggSpec(AggFn.Sum, Some("y"), "out")), pC)))
    }
    val (m, together) = run(fresh = true)
    val (_, apart) = run(fresh = false)
    val logM = 64 - java.lang.Long.numberOfLeadingZeros(m - 1)
    assert(m > 1 && apart.leaks == together.leaks)
    assert(apart.cost.shuffledElems - together.cost.shuffledElems == m * logM * 2)
    assert(apart.cost.rounds - together.cost.rounds == 3L)
    def rest(c: CostSnapshot) = c.copy(shuffledElems = 0, rounds = 0, modeledSeconds = 0)
    assert(rest(apart.cost) == rest(together.cost))
  }

  // ------------------------------------------------------- end-to-end plans

  private def df(spark: SparkSession, cols: Seq[String], data: Seq[Seq[Double]]): DataFrame = {
    import org.apache.spark.sql.Row
    import org.apache.spark.sql.types.{DoubleType, StructField, StructType}
    spark.createDataFrame(spark.sparkContext.parallelize(data.map(Row.fromSeq), 2),
      StructType(cols.map(StructField(_, DoubleType, nullable = false))))
  }

  private def endToEnd(dag: Dag, config: CompileConfig, inputs: Map[String, DataFrame],
      parties: Set[Party]): Golden = {
    val res = new Executor(spark, MpcBackend.sharemind(parties))
      .run(Compiler.compile(dag, config), inputs)
    Golden(res.metrics.cost, leakMultiset(res.leakage.events))
  }

  test("hhi-mpc at the benchmark self-test size (300 trips)") {
    // 100 trips per party: companyID 1..5, price 250..4249 cents, ~1% zero.
    val inputs = MarketConcentration.InputNames.zipWithIndex.map { case (nm, i) =>
      val rnd = new scala.util.Random(100L + i)
      nm -> df(spark, Seq("companyID", "price"), Seq.fill(100)(Seq(
        (rnd.nextInt(5) + 1).toDouble,
        if (rnd.nextDouble() < 0.01) 0.0 else (rnd.nextInt(4000) + 250).toDouble)))
    }.toMap
    val got = endToEnd(MarketConcentration.build(), CompileConfig.mpcOnly, inputs,
      Set(MarketConcentration.pA, MarketConcentration.pB, MarketConcentration.pC))
    check("hhi-mpc", got)
  }

  test("credit-hybrid at the benchmark self-test size (600 rows)") {
    // 300 demographics rows (SSN 1..300, 50 ZIPs), two 150-row score books.
    val rnd = new scala.util.Random(21L)
    val inputs = Map(
      "demographics" -> df(spark, Seq("ssn", "zip"),
        (1 to 300).map(s => Seq(s.toDouble, (10001 + rnd.nextInt(50)).toDouble))),
      "scores1" -> df(spark, Seq("ssn", "score"),
        Seq.fill(150)(Seq((rnd.nextInt(300) + 1).toDouble, (300 + rnd.nextInt(551)).toDouble))),
      "scores2" -> df(spark, Seq("ssn", "score"),
        Seq.fill(150)(Seq((rnd.nextInt(300) + 1).toDouble, (300 + rnd.nextInt(551)).toDouble))))
    val got = endToEnd(CreditRegulation.build(trustRegulator = true, withAvg = true),
      CompileConfig.default, inputs,
      Set(CreditRegulation.pA, CreditRegulation.pB, CreditRegulation.pC))
    check("credit-hybrid", got)
  }
}

object GoldenCountersSpec {

  final case class Golden(cost: CostSnapshot, leaks: Map[String, Int]) {
    /** Scala source for this value, for pasting into [[Expected]]. */
    def literal: String = {
      val c = cost
      val l = leaks.toSeq.sorted.map { case (k, n) => s"\"$k\" -> $n" }.mkString(", ")
      s"Golden(CostSnapshot(${c.rowsTouched}L, ${c.eqs}L, ${c.cmps}L, ${c.muls}L, ${c.rounds}L, " +
        s"${c.shuffledElems}L, ${c.gates}L, ${c.setups}L, ${c.peakMemBytes}L, ${c.modeledSeconds}), " +
        s"Map($l))"
    }
  }

  /** One canonical string per leakage event, counted. */
  def leakMultiset(events: Seq[LeakageEvent]): Map[String, Int] = {
    def to(ps: Set[Party]) = ps.toSeq.map(_.name).sorted.mkString("+")
    events.map {
      case CardinalityLeak(r, n, ps) => s"card($r,$n)->${to(ps)}"
      case ColumnLeak(r, c, ps)      => s"column($r,$c)->${to(ps)}"
      case RelationLeak(r, ps)       => s"relation($r)->${to(ps)}"
    }.groupBy(identity).view.mapValues(_.size).toMap
  }

  val Expected: Map[String, Golden] = Map(
    "sharemind: shuffle" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 3L, 120L, 0L, 0L, 0L, 0.00396),
        Map()),
    "sharemind: sortBy n=13 without validity" ->
      Golden(CostSnapshot(13L, 0L, 48L, 96L, 0L, 0L, 0L, 0L, 0L, 0.017192000000000002),
        Map()),
    "sharemind: sortBy n=13 with validity, two keys" ->
      Golden(CostSnapshot(13L, 48L, 96L, 336L, 0L, 0L, 0L, 0L, 0L, 0.032743999999999995),
        Map()),
    "sharemind: filter literal and column" ->
      Golden(CostSnapshot(22L, 0L, 22L, 11L, 0L, 0L, 0L, 0L, 0L, 0.011021999999999999),
        Map()),
    "sharemind: aggregate Sum with validity" ->
      Golden(CostSnapshot(20L, 19L, 103L, 612L, 4L, 300L, 0L, 0L, 0L, 0.042789999999999995),
        Map("card(agg,5)->a+b+c" -> 1)),
    "sharemind: globalAggregate Sum with validity" ->
      Golden(CostSnapshot(15L, 0L, 0L, 15L, 0L, 0L, 0L, 0L, 0L, 0.00303),
        Map()),
    "sharemind: hybridAggregate Sum with validity" ->
      Golden(CostSnapshot(48L, 0L, 0L, 15L, 9L, 492L, 0L, 0L, 0L, 0.022566),
        Map("card(hagg,5)->a+b+c" -> 1, "card(hagg:in,16)->a+b+c" -> 1, "column(hagg,k)->c" -> 1)),
    "sharemind: aggregate Count with validity" ->
      Golden(CostSnapshot(20L, 19L, 103L, 489L, 4L, 300L, 0L, 0L, 0L, 0.042544),
        Map("card(agg,5)->a+b+c" -> 1)),
    "sharemind: globalAggregate Count with validity" ->
      Golden(CostSnapshot(15L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0.003),
        Map()),
    "sharemind: hybridAggregate Count with validity" ->
      Golden(CostSnapshot(48L, 0L, 0L, 15L, 9L, 392L, 0L, 0L, 0L, 0.021766),
        Map("card(hagg,5)->a+b+c" -> 1, "card(hagg:in,16)->a+b+c" -> 1, "column(hagg,k)->c" -> 1)),
    "sharemind: aggregate Min with validity" ->
      Golden(CostSnapshot(20L, 19L, 122L, 631L, 4L, 300L, 0L, 0L, 0L, 0.04852799999999999),
        Map("card(agg,5)->a+b+c" -> 1)),
    "sharemind: globalAggregate Min with validity" ->
      Golden(CostSnapshot(15L, 0L, 15L, 30L, 0L, 0L, 0L, 0L, 0L, 0.00756),
        Map()),
    "sharemind: hybridAggregate Min with validity" ->
      Golden(CostSnapshot(48L, 0L, 15L, 30L, 9L, 492L, 0L, 0L, 0L, 0.027096),
        Map("card(hagg,5)->a+b+c" -> 1, "card(hagg:in,16)->a+b+c" -> 1, "column(hagg,k)->c" -> 1)),
    "sharemind: aggregate Max with validity" ->
      Golden(CostSnapshot(20L, 19L, 122L, 631L, 4L, 300L, 0L, 0L, 0L, 0.04852799999999999),
        Map("card(agg,5)->a+b+c" -> 1)),
    "sharemind: globalAggregate Max with validity" ->
      Golden(CostSnapshot(15L, 0L, 15L, 30L, 0L, 0L, 0L, 0L, 0L, 0.00756),
        Map()),
    "sharemind: hybridAggregate Max with validity" ->
      Golden(CostSnapshot(48L, 0L, 15L, 30L, 9L, 492L, 0L, 0L, 0L, 0.027096),
        Map("card(hagg,5)->a+b+c" -> 1, "card(hagg:in,16)->a+b+c" -> 1, "column(hagg,k)->c" -> 1)),
    "sharemind: aggregate preSorted" ->
      Golden(CostSnapshot(0L, 11L, 0L, 57L, 4L, 144L, 0L, 0L, 0L, 0.00542),
        Map("card(agg,4)->a+b+c" -> 1)),
    "sharemind: distinct with validity" ->
      Golden(CostSnapshot(28L, 79L, 106L, 436L, 0L, 0L, 0L, 0L, 0L, 0.039377999999999996),
        Map()),
    "sharemind: distinct preSorted" ->
      Golden(CostSnapshot(14L, 13L, 0L, 52L, 0L, 0L, 0L, 0L, 0L, 0.0030859999999999998),
        Map()),
    "sharemind: cartesianJoin with validity" ->
      Golden(CostSnapshot(28L, 72L, 0L, 72L, 7L, 134L, 0L, 0L, 0L, 0.014824),
        Map("card(cj,11)->a+b+c" -> 1)),
    "sharemind: select" ->
      Golden(CostSnapshot(14L, 0L, 0L, 112L, 4L, 0L, 0L, 0L, 0L, 0.007024),
        Map()),
    "sharemind: hybridJoin with validity" ->
      Golden(CostSnapshot(102L, 0L, 0L, 460L, 22L, 524L, 0L, 0L, 0L, 0.047512),
        Map("card(hj,20)->a+b+c" -> 1, "card(hj:left,11)->a+b+c" -> 1, "column(hj,left:k)->c" -> 1,
          "column(hj,right:k)->c" -> 1)),
    "sharemind: hybridAggregate over a hybridJoin output" ->
      Golden(CostSnapshot(39L, 0L, 0L, 12L, 5L, 156L, 0L, 0L, 0L, 0.014072000000000001),
        Map("card(hagg,4)->a+b+c" -> 1, "column(hagg,k)->c" -> 1)),
    "sharemind: publicJoin" ->
      Golden(CostSnapshot(31L, 0L, 0L, 0L, 2L, 0L, 0L, 0L, 0L, 0.0082),
        Map("card(pj,12)->a+b+c" -> 1, "column(pj,left:k)->a+b+c" -> 1,
          "column(pj,right:k)->a+b+c" -> 1)),
    "sharemind: reveal with validity" ->
      Golden(CostSnapshot(3L, 0L, 0L, 0L, 5L, 108L, 0L, 0L, 0L, 0.006464),
        Map("relation(rv)->a" -> 1)),
    "sharemind: aggregate on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0.0),
        Map("card(agg,0)->a+b+c" -> 1)),
    "sharemind: globalAggregate Min on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0.0),
        Map()),
    "sharemind: distinct on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0.0),
        Map()),
    "sharemind: compact on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 4L, 0L, 0L, 0L, 0L, 0.004),
        Map("card(cp,0)->a+b+c" -> 1)),
    "sharemind: reveal on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 4L, 0L, 0L, 0L, 0L, 0.004),
        Map("relation(rv)->a" -> 1)),
    "sharemind: join on 0 rows" ->
      Golden(CostSnapshot(6L, 0L, 0L, 0L, 7L, 1L, 0L, 0L, 0L, 0.008208),
        Map("card(cj,0)->a+b+c" -> 1)),
    "sharemind: sorted limit on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 1L, 0L, 0L, 0L, 0L, 0.001),
        Map("card(lim,0)->a+b+c" -> 1)),
    "sharemind: compacting limit on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 4L, 0L, 0L, 0L, 0L, 0.004),
        Map("card(lim,0)->a+b+c" -> 1)),
    "sharemind: hybridAggregate on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 4L, 0L, 0L, 0L, 0L, 0.004),
        Map("card(hagg,0)->a+b+c" -> 1, "card(hagg:in,0)->a+b+c" -> 1)),
    "sharemind: hybridJoin on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 4L, 0L, 0L, 0L, 0L, 0.004),
        Map("card(hj,0)->a+b+c" -> 1, "card(hj:left,0)->a+b+c" -> 1)),
    "sharemind: publicJoin on 0 rows" ->
      Golden(CostSnapshot(6L, 0L, 0L, 0L, 5L, 0L, 0L, 0L, 0L, 0.006200000000000001),
        Map("card(pj,0)->a+b+c" -> 1, "card(pj:left,0)->a+b+c" -> 1,
          "column(pj,left:k)->a+b+c" -> 1, "column(pj,right:k)->a+b+c" -> 1)),
    "obliv-c: shuffle" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 0L, 0L, 7680L, 0L, 0L, 0.007679999999999999),
        Map()),
    "obliv-c: sortBy n=13 without validity" ->
      Golden(CostSnapshot(13L, 0L, 0L, 0L, 0L, 0L, 27648L, 0L, 425984L, 0.028298),
        Map()),
    "obliv-c: sortBy n=13 with validity, two keys" ->
      Golden(CostSnapshot(13L, 0L, 0L, 0L, 0L, 0L, 79872L, 0L, 0L, 0.080522),
        Map()),
    "obliv-c: filter literal and column" ->
      Golden(CostSnapshot(22L, 0L, 0L, 0L, 0L, 0L, 2816L, 0L, 146432L, 0.003916),
        Map()),
    "obliv-c: aggregate Sum with validity" ->
      Golden(CostSnapshot(20L, 0L, 0L, 0L, 1L, 0L, 167488L, 0L, 655360L, 0.168488),
        Map("card(agg,5)->a+b" -> 1)),
    "obliv-c: globalAggregate Sum with validity" ->
      Golden(CostSnapshot(15L, 0L, 0L, 0L, 0L, 0L, 1920L, 0L, 491520L, 0.0026699999999999996),
        Map()),
    "obliv-c: hybridAggregate Sum with validity" ->
      Golden(CostSnapshot(48L, 0L, 0L, 0L, 3L, 0L, 34368L, 0L, 0L, 0.036767999999999995),
        Map("card(hagg,5)->a+b" -> 1, "card(hagg:in,16)->a+b" -> 1, "column(hagg,k)->c" -> 1)),
    "obliv-c: aggregate Count with validity" ->
      Golden(CostSnapshot(20L, 0L, 0L, 0L, 1L, 0L, 180160L, 0L, 655360L, 0.18116),
        Map("card(agg,5)->a+b" -> 1)),
    "obliv-c: globalAggregate Count with validity" ->
      Golden(CostSnapshot(15L, 0L, 0L, 0L, 0L, 0L, 31200L, 0L, 491520L, 0.03195),
        Map()),
    "obliv-c: hybridAggregate Count with validity" ->
      Golden(CostSnapshot(48L, 0L, 0L, 0L, 3L, 0L, 27968L, 0L, 0L, 0.030368),
        Map("card(hagg,5)->a+b" -> 1, "card(hagg:in,16)->a+b" -> 1, "column(hagg,k)->c" -> 1)),
    "obliv-c: aggregate Min with validity" ->
      Golden(CostSnapshot(20L, 0L, 0L, 0L, 1L, 0L, 173696L, 0L, 655360L, 0.174696),
        Map("card(agg,5)->a+b" -> 1)),
    "obliv-c: globalAggregate Min with validity" ->
      Golden(CostSnapshot(15L, 0L, 0L, 0L, 0L, 0L, 6720L, 0L, 491520L, 0.007469999999999999),
        Map()),
    "obliv-c: hybridAggregate Min with validity" ->
      Golden(CostSnapshot(48L, 0L, 0L, 0L, 3L, 0L, 37248L, 0L, 0L, 0.039647999999999996),
        Map("card(hagg,5)->a+b" -> 1, "card(hagg:in,16)->a+b" -> 1, "column(hagg,k)->c" -> 1)),
    "obliv-c: aggregate Max with validity" ->
      Golden(CostSnapshot(20L, 0L, 0L, 0L, 1L, 0L, 173696L, 0L, 655360L, 0.174696),
        Map("card(agg,5)->a+b" -> 1)),
    "obliv-c: globalAggregate Max with validity" ->
      Golden(CostSnapshot(15L, 0L, 0L, 0L, 0L, 0L, 6720L, 0L, 491520L, 0.007469999999999999),
        Map()),
    "obliv-c: hybridAggregate Max with validity" ->
      Golden(CostSnapshot(48L, 0L, 0L, 0L, 3L, 0L, 37248L, 0L, 0L, 0.039647999999999996),
        Map("card(hagg,5)->a+b" -> 1, "card(hagg:in,16)->a+b" -> 1, "column(hagg,k)->c" -> 1)),
    "obliv-c: aggregate preSorted" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 1L, 0L, 14976L, 0L, 393216L, 0.014976),
        Map("card(agg,4)->a+b" -> 1)),
    "obliv-c: distinct with validity" ->
      Golden(CostSnapshot(28L, 0L, 0L, 0L, 0L, 0L, 96512L, 0L, 458752L, 0.097912),
        Map()),
    "obliv-c: distinct preSorted" ->
      Golden(CostSnapshot(14L, 0L, 0L, 0L, 0L, 0L, 6656L, 0L, 458752L, 0.007356),
        Map()),
    "obliv-c: cartesianJoin with validity" ->
      Golden(CostSnapshot(28L, 0L, 0L, 0L, 1L, 0L, 17792L, 0L, 2228224L, 0.019191999999999997),
        Map("card(cj,11)->a+b" -> 1)),
    "obliv-c: select" ->
      Golden(CostSnapshot(14L, 0L, 0L, 0L, 4L, 0L, 7168L, 0L, 0L, 0.007868),
        Map()),
    "obliv-c: hybridJoin with validity" ->
      Golden(CostSnapshot(102L, 0L, 0L, 0L, 13L, 0L, 62976L, 0L, 0L, 0.068076),
        Map("card(hj,20)->a+b" -> 1, "card(hj:left,11)->a+b" -> 1, "column(hj,left:k)->c" -> 1,
          "column(hj,right:k)->c" -> 1)),
    "obliv-c: hybridAggregate over a hybridJoin output" ->
      Golden(CostSnapshot(39L, 0L, 0L, 0L, 2L, 0L, 12288L, 0L, 0L, 0.014238),
        Map("card(hagg,4)->a+b" -> 1, "column(hagg,k)->c" -> 1)),
    "obliv-c: publicJoin" ->
      Golden(CostSnapshot(31L, 0L, 0L, 0L, 2L, 0L, 0L, 0L, 0L, 0.0015500000000000002),
        Map("card(pj,12)->a+b" -> 1, "column(pj,left:k)->a+b" -> 1, "column(pj,right:k)->a+b" -> 1)),
    "obliv-c: reveal with validity" ->
      Golden(CostSnapshot(3L, 0L, 0L, 0L, 2L, 0L, 6912L, 0L, 0L, 0.007062),
        Map("relation(rv)->a" -> 1)),
    "obliv-c: aggregate on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0.0),
        Map("card(agg,0)->a+b" -> 1)),
    "obliv-c: globalAggregate Min on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0.0),
        Map()),
    "obliv-c: distinct on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0L, 0.0),
        Map()),
    "obliv-c: compact on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 1L, 0L, 0L, 0L, 0L, 0.0),
        Map("card(cp,0)->a+b" -> 1)),
    "obliv-c: reveal on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 1L, 0L, 0L, 0L, 0L, 0.0),
        Map("relation(rv)->a" -> 1)),
    "obliv-c: join on 0 rows" ->
      Golden(CostSnapshot(6L, 0L, 0L, 0L, 1L, 0L, 64L, 0L, 786432L, 3.64E-4),
        Map("card(cj,0)->a+b" -> 1)),
    "obliv-c: sorted limit on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 1L, 0L, 0L, 0L, 0L, 0.0),
        Map("card(lim,0)->a+b" -> 1)),
    "obliv-c: compacting limit on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 1L, 0L, 0L, 0L, 0L, 0.0),
        Map("card(lim,0)->a+b" -> 1)),
    "obliv-c: hybridAggregate on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 1L, 0L, 0L, 0L, 0L, 0.0),
        Map("card(hagg,0)->a+b" -> 1, "card(hagg:in,0)->a+b" -> 1)),
    "obliv-c: hybridJoin on 0 rows" ->
      Golden(CostSnapshot(0L, 0L, 0L, 0L, 1L, 0L, 0L, 0L, 0L, 0.0),
        Map("card(hj,0)->a+b" -> 1, "card(hj:left,0)->a+b" -> 1)),
    "obliv-c: publicJoin on 0 rows" ->
      Golden(CostSnapshot(6L, 0L, 0L, 0L, 2L, 0L, 0L, 0L, 0L, 3.0000000000000003E-4),
        Map("card(pj,0)->a+b" -> 1, "card(pj:left,0)->a+b" -> 1, "column(pj,left:k)->a+b" -> 1,
          "column(pj,right:k)->a+b" -> 1)),
    "sharemind: sortBy 9999 x 2" ->
      Golden(CostSnapshot(9999L, 0L, 456195L, 2280975L, 0L, 0L, 0L, 0L, 0L, 143.42024999999998),
        Map()),
    "hhi-mpc" ->
      Golden(CostSnapshot(1238L, 304L, 5722L, 28602L, 12L, 5431L, 0L, 0L, 0L, 2.081108),
        Map("card(#10,5)->a+b+c" -> 1, "card(#3@a,100)->a+b+c" -> 1, "card(#3@b,100)->a+b+c" -> 1,
          "card(#3@c,100)->a+b+c" -> 1, "card(#6,5)->a+b+c" -> 1, "relation(hhi)->a" -> 1)),
    "credit-hybrid" ->
      Golden(CostSnapshot(3696L, 0L, 48L, 12598L, 37L, 27000L, 0L, 0L, 0L, 1.0317960000000002),
        Map("card(#0@a,300)->a+b+c" -> 1, "card(#3@b,150)->a+b+c" -> 1,
          "card(#3@c,150)->a+b+c" -> 1, "card(#4,300)->a+b+c" -> 1, "card(#7,48)->a+b+c" -> 1,
          "column(#4,left:ssn)->a" -> 1, "column(#4,right:ssn)->a" -> 1, "column(#7,zip)->a" -> 1,
          "relation(avg_scores)->a" -> 1)),
  )
}
