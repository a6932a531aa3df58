package repro.mpc

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.Props
import repro.core.{AggFn, AggSpec, ArithFn, CmpOp}
import MpcTestKit._

/** Hybrid MPC–cleartext protocols (§5.3): correctness vs. cleartext
  * references, cost shape, and exact leakage.
  */
class ProtocolsSpec extends AnyFunSuite {

  private def genRows(maxRows: Int, maxKey: Int): Gen[Seq[Seq[Double]]] =
    for {
      n <- Gen.chooseNum(0, maxRows)
      rows <- Gen.listOfN(n,
        Gen.zip(Gen.chooseNum(1, maxKey), Gen.chooseNum(0, 99)).map(t => Seq(t._1.toDouble, t._2.toDouble)))
    } yield rows

  private def refJoin(l: Seq[Seq[Double]], r: Seq[Seq[Double]]): Seq[Seq[Double]] =
    for { lr <- l; rr <- r; if lr.head == rr.head } yield lr ++ rr.tail

  // -------------------------------------------------------------- hybrid join

  test("hybrid join matches the cleartext join (property)") {
    Props.forAll2(genRows(20, 6), genRows(20, 6), runs = 20) { (l, r) =>
      val b = sharemind()
      val out = b.hybridJoin("hj", rel(b, Seq("k", "x"), l), rel(b, Seq("k", "y"), r),
        Seq("k"), Seq("k"), stp = pA)
      assert(out.schema == Vector("k", "x", "y"))
      assertSameRows(open(b, out), refJoin(l, r))
    }
  }

  test("hybrid join reveals key columns only to the STP, sizes to all") {
    val b = sharemind()
    val l = Seq(Seq(1.0, 10.0), Seq(2.0, 20.0))
    val r = Seq(Seq(1.0, 30.0), Seq(3.0, 40.0))
    b.hybridJoin("hj", rel(b, Seq("k", "x"), l), rel(b, Seq("k", "y"), r),
      Seq("k"), Seq("k"), stp = pA)
    val colLeaks = b.leakage.columns.filter(_.relation == "hj")
    assert(colLeaks.nonEmpty && colLeaks.forall(_.to == Set(pA)),
      s"key columns must go to the STP only: $colLeaks")
    assert(colLeaks.map(_.column).toSet == Set("left:k", "right:k"),
      "only the key columns may be revealed")
    assert(b.leakage.cardinalities.exists(c => c.relation == "hj" && c.rows == 1L && c.to == parties3))
  }

  test("hybrid join uses no O(n*m) equality tests") {
    val b = sharemind()
    val mk = (n: Int, s: Int) => (1 to n).map(i => Seq((i % 50).toDouble, s.toDouble))
    val eqBefore = b.meter.eqs
    b.hybridJoin("hj", rel(b, Seq("k", "x"), mk(200, 1)), rel(b, Seq("k", "y"), mk(200, 2)),
      Seq("k"), Seq("k"), stp = pA)
    assert(b.meter.eqs == eqBefore, "matching happens in the clear at the STP")
  }

  test("hybrid join is asymptotically cheaper than the Cartesian join") {
    // At small n the Cartesian join's O(n^2) term is below the hybrid
    // join's fixed shuffle cost; by n=2000 the asymptotics dominate.
    def modeled(hybrid: Boolean, n: Int): Double = {
      val b = sharemind()
      val l = (1 to n).map(i => Seq(i.toDouble, 1.0))
      val r = (1 to n).map(i => Seq(i.toDouble, 2.0))
      if (hybrid)
        b.hybridJoin("j", rel(b, Seq("k", "x"), l), rel(b, Seq("k", "y"), r), Seq("k"), Seq("k"), pA)
      else
        b.join("j", rel(b, Seq("k", "x"), l), rel(b, Seq("k", "y"), r), Seq("k"), Seq("k"))
      b.meter.modeledSeconds
    }
    assert(modeled(hybrid = true, 2000) * 5 < modeled(hybrid = false, 2000),
      "hybrid join must be far cheaper at n=2000")
    // And the advantage grows with n (asymptotic, not constant-factor).
    val r1 = modeled(hybrid = false, 1000) / modeled(hybrid = true, 1000)
    val r2 = modeled(hybrid = false, 2000) / modeled(hybrid = true, 2000)
    assert(r2 > r1, s"ratio must grow: $r1 -> $r2")
  }

  test("hybrid join handles duplicate keys on both sides") {
    val b = sharemind()
    val l = Seq(Seq(1.0, 10.0), Seq(1.0, 11.0), Seq(2.0, 20.0))
    val r = Seq(Seq(1.0, 30.0), Seq(1.0, 31.0))
    val out = b.hybridJoin("hj", rel(b, Seq("k", "x"), l), rel(b, Seq("k", "y"), r),
      Seq("k"), Seq("k"), pA)
    assertSameRows(open(b, out), refJoin(l, r))
  }

  // -------------------------------------------------------------- public join

  test("public join matches the cleartext join (property)") {
    Props.forAll2(genRows(20, 6), genRows(20, 6), runs = 20) { (l, r) =>
      val b = sharemind()
      val out = b.publicJoin("pj", rel(b, Seq("k", "x"), l), rel(b, Seq("k", "y"), r),
        Seq("k"), Seq("k"))
      assertSameRows(open(b, out), refJoin(l, r))
    }
  }

  test("public join output is ordered by key (enables sort elimination)") {
    val b = sharemind()
    val l = Seq(Seq(9.0, 1.0), Seq(2.0, 2.0), Seq(11.0, 3.0))
    val r = Seq(Seq(11.0, 4.0), Seq(9.0, 5.0), Seq(2.0, 6.0))
    val out = b.publicJoin("pj", rel(b, Seq("k", "x"), l), rel(b, Seq("k", "y"), r),
      Seq("k"), Seq("k"))
    assert(open(b, out).map(_.head) == Seq(2.0, 9.0, 11.0), "numeric key order")
  }

  test("public join pairs are ordered by key, then left index, then right index") {
    // Duplicate keys on both sides, paired on their fixed-point encoding.
    val l = Vector(5.0, 2.0, 5.0, 7.0, 2.0)
    val r = Vector(2.0, 5.0, 9.0, 5.0, 2.0)
    val expected = (Seq(1, 1, 4, 4, 0, 0, 2, 2), Seq(0, 4, 0, 4, 1, 3, 1, 3))
    val (li, rj) = sharemind().publicJoinPairs("pj", Seq("k"), Seq("k"),
      Seq(Fixed.encodeColumn(l.toArray)), Seq(Fixed.encodeColumn(r.toArray)))
    assert((li.toSeq, rj.toSeq) == expected)
  }

  test("public joins over shared and cleartext inputs agree on rows, order and leakage") {
    // The duplicate-key rows of the pair-order test above.
    val l = Seq(5.0, 2.0, 5.0, 7.0, 2.0).zipWithIndex.map { case (k, i) => Seq(k, 10.0 + i) }
    val r = Seq(2.0, 5.0, 9.0, 5.0, 2.0).zipWithIndex.map { case (k, j) => Seq(k, 20.0 + j) }
    def publicLeaks(b: MpcBackend) =
      (b.leakage.columns, b.leakage.cardinalities.filter(_.relation == "pj"))

    val shared = sharemind()
    val (ls, rs) = (rel(shared, Seq("k", "x"), l), rel(shared, Seq("k", "y"), r))
    shared.leakage.clear()
    val fromShared = shared.publicJoin("pj", ls, rs, Seq("k"), Seq("k"))

    val clear = sharemind()
    val pairs = clear.publicJoinPairs("pj", Seq("k"), Seq("k"),
      Seq(Fixed.encodeColumn(l.map(_.head).toArray)), Seq(Fixed.encodeColumn(r.map(_.head).toArray)))
    def cols(rows: Seq[Seq[Double]]) = Seq(0, 1).map(c => rows.map(_(c)).toArray)
    val fromClear = clear.publicJoinClose("pj", Seq("k", "x"), Seq("k", "y"), Seq("k"), Seq("k"),
      cols(l), cols(r), pairs)

    assert(fromClear.schema == fromShared.schema)
    assert(open(clear, fromClear) == open(shared, fromShared))
    assert(open(shared, fromShared).map(_.head) == Seq(2.0, 2.0, 2.0, 2.0, 5.0, 5.0, 5.0, 5.0))
    assert(publicLeaks(clear) == publicLeaks(shared))
    assert(publicLeaks(shared) == (
      Seq(ColumnLeak("pj", "left:k", parties3), ColumnLeak("pj", "right:k", parties3)),
      Seq(CardinalityLeak("pj", 8L, parties3))))
  }

  test("public join reveals keys to all parties and uses no oblivious ops") {
    val b = sharemind()
    val l = Seq(Seq(1.0, 10.0)); val r = Seq(Seq(1.0, 30.0))
    val mulsBefore = b.meter.muls; val shufBefore = b.meter.shuffledElems
    b.publicJoin("pj", rel(b, Seq("k", "x"), l), rel(b, Seq("k", "y"), r),
      Seq("k"), Seq("k"))
    assert(b.leakage.columns.filter(_.relation == "pj").forall(_.to == parties3))
    assert(b.meter.muls == mulsBefore && b.meter.shuffledElems == shufBefore,
      "public join performs no oblivious shuffles or multiplications")
  }

  // ------------------------------------------------------- hybrid aggregation

  private def refAgg(rows: Seq[Seq[Double]], fn: AggFn): Seq[Seq[Double]] =
    rows.groupBy(_.head).map { case (k, rs) =>
      Seq(k, fn match {
        case AggFn.Sum   => rs.map(_(1)).sum
        case AggFn.Count => rs.size.toDouble
        case AggFn.Min   => rs.map(_(1)).min
        case AggFn.Max   => rs.map(_(1)).max
      })
    }.toSeq

  for (fn <- Seq(AggFn.Sum, AggFn.Count, AggFn.Min, AggFn.Max)) {
    test(s"hybrid aggregation computes $fn per group (property)") {
      Props.forAll(genRows(25, 5), runs = 15) { rows =>
        val b = sharemind()
        val out = b.hybridAggregate("ha", rel(b, Seq("k", "v"), rows), Seq("k"),
          Seq(AggSpec(fn, if (fn == AggFn.Count) None else Some("v"), "out")), stp = pA)
        assertSameRows(open(b, out), refAgg(rows, fn))
      }
    }
  }

  test("hybrid aggregation reveals the group column only to the STP") {
    val b = sharemind()
    val rows = Seq(Seq(1.0, 5.0), Seq(2.0, 6.0), Seq(1.0, 7.0))
    b.hybridAggregate("ha", rel(b, Seq("k", "v"), rows), Seq("k"),
      Seq(AggSpec(AggFn.Sum, Some("v"), "s")), stp = pC)
    val colLeaks = b.leakage.columns.filter(_.relation == "ha")
    assert(colLeaks.map(_.column) == Seq("k") && colLeaks.forall(_.to == Set(pC)))
    assert(b.leakage.cardinalities.exists(c => c.relation == "ha" && c.rows == 2L && c.to == parties3))
  }

  test("hybrid aggregation avoids oblivious comparisons for sum/count") {
    val b = sharemind()
    val rows = (1 to 100).map(i => Seq((i % 10).toDouble, 1.0))
    val cmpsBefore = b.meter.cmps; val eqsBefore = b.meter.eqs
    b.hybridAggregate("ha", rel(b, Seq("k", "v"), rows), Seq("k"),
      Seq(AggSpec(AggFn.Sum, Some("v"), "s")), stp = pA)
    assert(b.meter.cmps == cmpsBefore && b.meter.eqs == eqsBefore,
      "sorting and equality happen in the clear at the STP")
  }

  test("hybrid aggregation is asymptotically cheaper than the MPC aggregation") {
    def modeled(hybrid: Boolean): Double = {
      val b = sharemind()
      val rows = (1 to 400).map(i => Seq((i % 20).toDouble, 1.0))
      if (hybrid)
        b.hybridAggregate("a", rel(b, Seq("k", "v"), rows), Seq("k"),
          Seq(AggSpec(AggFn.Sum, Some("v"), "s")), pA)
      else
        b.aggregate("a", rel(b, Seq("k", "v"), rows), Seq("k"), Seq(AggSpec(AggFn.Sum, Some("v"), "s")))
      b.meter.modeledSeconds
    }
    assert(modeled(hybrid = true) * 3 < modeled(hybrid = false))
  }

  test("hybrid operators reject uncompacted handling silently leaking validity") {
    // Filtered (validity-carrying) inputs are compacted first, which logs
    // the surviving cardinality — verify the compact leak is recorded.
    val b = sharemind()
    val l = b.filter(rel(b, Seq("k", "x"), Seq(Seq(1.0, 1.0), Seq(2.0, 2.0))), "k", CmpOp.Eq, Right(1.0))
    val r = rel(b, Seq("k", "y"), Seq(Seq(1.0, 3.0)))
    val out = b.hybridJoin("hj", l, r, Seq("k"), Seq("k"), pA)
    assertSameRows(open(b, out), Seq(Seq(1.0, 1.0, 3.0)))
    assert(b.leakage.cardinalities.exists(_.relation == "hj:left"))
  }

  test("hybrid aggregation on a filtered relation compacts then aggregates") {
    val b = sharemind()
    val rows = Seq(Seq(1.0, 5.0), Seq(1.0, 6.0), Seq(2.0, 100.0))
    val f = b.filter(rel(b, Seq("k", "v"), rows), "v", CmpOp.Lt, Right(50.0))
    val out = b.hybridAggregate("ha", f, Seq("k"), Seq(AggSpec(AggFn.Sum, Some("v"), "s")), pA)
    assertSameRows(open(b, out), Seq(Seq(1.0, 11.0)))
  }

  // ------------------------------------------------- shuffle elimination

  /** `(k, v)`, 12 rows with k = i mod 3 and v = i, straight from an
    * oblivious shuffle, so fresh.
    */
  private def freshRel(b: MpcBackend): SharedRelation =
    Oblivious.shuffle(b.engine, rel(b, Seq("k", "v"), (0 until 12).map(i => Seq((i % 3).toDouble, i.toDouble))))

  test("a shuffle's output is fresh, and a fresh relation is not shuffled again") {
    val b = sharemind()
    val closed = rel(b, Seq("k", "v"), Seq(Seq(1.0, 2.0), Seq(3.0, 4.0)))
    assert(!closed.fresh)
    val s = freshRel(b)
    assert(s.fresh)
    val before = b.meter.snapshot
    assert(Oblivious.shuffle(b.engine, s) eq s)
    assert(b.meter.snapshot == before)
  }

  test("project, filter, arith, constCol and only keep a relation fresh") {
    val b = sharemind()
    val s = freshRel(b)
    val kept = Seq(
      b.project(s, Seq("v")),
      b.filter(s, "v", CmpOp.Gt, Right(4.0)),
      b.filter(s, "v", CmpOp.Lt, Left("k")),
      b.arith(s, ArithFn.Add, "w", "v", Right(1.0)),
      b.arith(s, ArithFn.Mul, "v", "v", Left("k")),
      b.constCol(s, "one", 1.0),
      s.only(Seq("v")),
      s.only(s.schema))
    assert(kept.forall(_.fresh))
  }

  test("gather, take, concat, sort, distinct and any opening of row-aligned values clear freshness") {
    val b = sharemind()
    val s = freshRel(b)
    val f = b.filter(s, "v", CmpOp.Gt, Right(4.0))
    val cleared = Seq(
      s.gather(Array.range(0, s.size)),
      s.take(5),
      b.concat(Seq(s, freshRel(b))),
      b.sort(s, Seq("k" -> true)),
      b.distinct(s, preSorted = true),
      Oblivious.select(b.engine, s, b.engine.input(Array(2L, 0L))),
      // Both sides' keys are opened in their row order.
      b.publicJoin("pj", s, freshRel(b), Seq("k"), Seq("k")),
      // The prefix's validity flags are opened in place.
      b.limit("lim", b.sort(f, Seq("v" -> true)), 3, sorted = true))
    assert(cleared.forall(!_.fresh))
  }

  test("a compaction's output is fresh; a fresh input's flags are opened in place, unshuffled") {
    val b = sharemind()
    val f = b.filter(rel(b, Seq("k", "v"), (0 until 12).map(i => Seq((i % 3).toDouble, i.toDouble))),
      "v", CmpOp.Gt, Right(4.0))
    assert(!f.fresh)
    b.meter.reset()
    val c = b.compact("c", f)
    assert(c.fresh && b.meter.shuffledElems == 12L * 4 * 3)

    val g = b.filter(freshRel(b), "v", CmpOp.Gt, Right(4.0))
    b.meter.reset()
    val d = b.compact("d", g)
    assert(d.fresh && d.validity.isEmpty)
    assert(b.meter.shuffledElems == 0L && b.meter.rounds == 1L, "one opening round, no shuffle")
    val expected = (5 until 12).map(i => Seq((i % 3).toDouble, i.toDouble))
    assertSameRows(open(b, d), expected)
    assertSameRows(open(b, c), expected)
  }

  test("hybrid aggregation over a filtered hybrid join output matches the cleartext reference (property)") {
    // The join's output is fresh, so its filtered rows are compacted with
    // no shuffle and their keys opened to the STP in that order.
    Props.forAll2(genRows(20, 6), genRows(20, 6), runs = 20) { (l, r) =>
      val b = sharemind()
      val hj = b.hybridJoin("hj", rel(b, Seq("k", "x"), l), rel(b, Seq("k", "y"), r),
        Seq("k"), Seq("k"), stp = pA)
      assert(hj.fresh || hj.size == 0)
      val f = b.filter(hj, "y", CmpOp.Gt, Right(30.0))
      val out = b.hybridAggregate("ha", f, Seq("k"), Seq(AggSpec(AggFn.Sum, Some("x"), "s")), stp = pA)
      assertSameRows(open(b, out),
        refAgg(refJoin(l, r).filter(_(2) > 30.0).map(row => Seq(row(0), row(1))), AggFn.Sum))
    }
  }

  // --------------------------------------------- several outputs at once

  /** An aggregation method called with the outputs `aggs` of a relation
    * `(k, v)`, under the name `name`.
    */
  private type AggMethod = (MpcBackend, String, SharedRelation, Seq[AggSpec]) => SharedRelation

  private val aggMethods: Seq[(String, Boolean, AggMethod)] = Seq(
    ("hybridAggregate", true, (b, name, r, aggs) => b.hybridAggregate(name, r, Seq("k"), aggs, pC)),
    ("aggregate", true, (b, name, r, aggs) => b.aggregate(name, r, Seq("k"), aggs)),
    ("globalAggregate", false, (b, _, r, aggs) => b.globalAggregate(r, aggs)))

  private val aggEngines = Seq[(String, () => MpcBackend)](
    "sharemind" -> (() => sharemind(seed = 3L)), "obliv-c" -> (() => oblivc()))

  private val outputPairs = Seq(
    (AggSpec(AggFn.Sum, Some("v"), "s"), AggSpec(AggFn.Count, None, "c")),
    (AggSpec(AggFn.Min, Some("v"), "lo"), AggSpec(AggFn.Max, Some("v"), "hi")),
    (AggSpec(AggFn.Max, Some("v"), "hi"), AggSpec(AggFn.Sum, Some("v"), "s")))

  for ((engine, mk) <- aggEngines; (method, grouped, call) <- aggMethods)
    test(s"$engine: a two-output $method opens the rows of two one-output calls joined by key") {
      val rows = (0 until 23).map(i => Seq((i * 5 % 4).toDouble, (i * 17 % 31).toDouble))
      def input(b: MpcBackend) = b.filter(rel(b, Seq("k", "v"), rows), "v", CmpOp.Gt, Right(4.0))
      for ((x, y) <- outputPairs) {
        val both = mk()
        val in = input(both)
        both.leakage.clear()
        val out = call(both, "agg", in, Seq(x, y))
        assert(out.schema == (if (grouped) Vector("k") else Vector()) ++ Vector(x.out, y.out))
        val got = open(both, out)

        val apart = mk()
        val inApart = input(apart)
        def one(spec: AggSpec) = open(apart, call(apart, s"agg:${spec.out}", inApart, Seq(spec)))
          .map(r => r.init -> r.last).toMap
        val (xs, ys) = (one(x), one(y))
        assert(xs.keySet == ys.keySet)
        assertSameRows(got, xs.toSeq.map { case (key, v) => key ++ Seq(v, ys(key)) })

        // The key opening and the group count are recorded once.
        val events = both.leakage.events
        assert(events.collect { case CardinalityLeak("agg", n, _) => n } ==
          (if (grouped) Seq(got.length.toLong) else Seq()))
        assert(events.collect { case ColumnLeak("agg", c, _) => c } ==
          (if (method == "hybridAggregate") Seq("k") else Seq()))
      }
    }

  for ((engine, mk) <- aggEngines; (method, true, call) <- aggMethods;
       (input, filtered) <- Seq("an empty" -> false, "an all-invalid" -> true))
    test(s"$engine: $method over $input input returns no rows and records 0 groups") {
      val b = mk()
      val in =
        if (!filtered) rel(b, Seq("k", "v"), Seq.empty)
        else b.filter(rel(b, Seq("k", "v"), Seq(Seq(1.0, 2.0), Seq(3.0, 4.0))), "v", CmpOp.Gt, Right(50.0))
      b.leakage.clear()
      val out = call(b, "agg", in, sumCount)
      assert(out.size == 0 && open(b, out).isEmpty)
      assert(b.leakage.events.collect { case CardinalityLeak("agg", n, _) => n } == Seq(0L))
    }

  // ------------------------------------------------------ pinned STP order

  // Two-column keys with negative and fractional values, duplicates on both
  // sides, and keys on one side only; `empty` has no rows.
  private val pinLeft = Seq(
    Seq(-1.5, 2.0, 1.0), Seq(0.25, -3.0, 2.0), Seq(-1.5, 2.0, 3.0), Seq(4.0, 0.0, 4.0),
    Seq(0.25, -3.0, 5.0), Seq(-1.5, 0.5, 6.0), Seq(-2.0, 2.0, 7.0))
  private val pinRight = Seq(
    Seq(0.25, -3.0, 10.0), Seq(-1.5, 2.0, 11.0), Seq(9.0, 9.0, 12.0), Seq(0.25, -3.0, 13.0),
    Seq(-1.5, 2.0, 14.0), Seq(-1.5, 0.5, 15.0), Seq(-0.75, 2.0, 16.0))
  private val keys2 = Seq("k1", "k2")

  /** Run `protocol` over the pinned relations on a seeded backend: the
    * protocol's `CostSnapshot` and ordered leakage, then the opened output
    * rows in order, one per line. The rows follow the STP's pair order and
    * the dealer's draws, so they pin both.
    */
  private def pinned(protocol: (MpcBackend, SharedRelation, SharedRelation, SharedRelation) =>
      SharedRelation): String = {
    val b = sharemind(seed = 11L)
    val (l, r) = (rel(b, keys2 :+ "x", pinLeft), rel(b, keys2 :+ "y", pinRight))
    val empty = rel(b, keys2 :+ "y", Seq.empty)
    b.meter.reset(); b.leakage.clear()
    val out = protocol(b, l, r, empty)
    (Seq(b.meter.snapshot.toString) ++ b.leakage.events.map(_.toString) ++
      open(b, out).map(_.mkString(","))).mkString("\n")
  }

  private def pinnedCase(name: String, expected: String)(
      protocol: (MpcBackend, SharedRelation, SharedRelation, SharedRelation) => SharedRelation): Unit =
    test(s"$name keeps its pinned pair order, counters and leakage") {
      val got = pinned(protocol)
      assert(got == expected.stripMargin.trim, s"\n$got")
    }

  pinnedCase("hybrid join", """
    |CostSnapshot(55,0,0,256,19,270,0,0,0,0.032672)
    |CardinalityLeak(hj0,0,Set(a, b, c))
    |ColumnLeak(hj,left:k1,Set(a))
    |ColumnLeak(hj,left:k2,Set(a))
    |ColumnLeak(hj,right:k1,Set(a))
    |ColumnLeak(hj,right:k2,Set(a))
    |CardinalityLeak(hj,9,Set(a, b, c))
    |0.25,-3.0,2.0,10.0
    |-1.5,2.0,1.0,14.0
    |0.25,-3.0,2.0,13.0
    |-1.5,0.5,6.0,15.0
    |0.25,-3.0,5.0,10.0
    |-1.5,2.0,1.0,11.0
    |-1.5,2.0,3.0,14.0
    |-1.5,2.0,3.0,11.0
    |0.25,-3.0,5.0,13.0
    |""") { (b, l, r, empty) =>
    val none = b.hybridJoin("hj0", l, empty, keys2, keys2, pA)
    assert(none.size == 0)
    b.hybridJoin("hj", l, r, keys2, keys2, pA)
  }

  pinnedCase("hybrid aggregation", """
    |CostSnapshot(21,0,0,6,8,147,0,0,0,0.013388)
    |CardinalityLeak(ha0,0,Set(a, b, c))
    |ColumnLeak(ha,k1,Set(c))
    |ColumnLeak(ha,k2,Set(c))
    |CardinalityLeak(ha,5,Set(a, b, c))
    |0.25,-3.0,7.0
    |4.0,0.0,4.0
    |-1.5,2.0,4.0
    |-2.0,2.0,7.0
    |-1.5,0.5,6.0
    |""") { (b, l, _, empty) =>
    val none = b.hybridAggregate("ha0", empty, keys2, Seq(AggSpec(AggFn.Sum, Some("y"), "s")), pC)
    assert(none.size == 0)
    b.hybridAggregate("ha", l, keys2, Seq(AggSpec(AggFn.Sum, Some("x"), "s")), pC)
  }

  pinnedCase("public join", """
    |CostSnapshot(30,0,0,0,3,0,0,0,0,0.009000000000000001)
    |ColumnLeak(pj0,left:k1,Set(a, b, c))
    |ColumnLeak(pj0,left:k2,Set(a, b, c))
    |ColumnLeak(pj0,right:k1,Set(a, b, c))
    |ColumnLeak(pj0,right:k2,Set(a, b, c))
    |CardinalityLeak(pj0,0,Set(a, b, c))
    |ColumnLeak(pj,left:k1,Set(a, b, c))
    |ColumnLeak(pj,left:k2,Set(a, b, c))
    |ColumnLeak(pj,right:k1,Set(a, b, c))
    |ColumnLeak(pj,right:k2,Set(a, b, c))
    |CardinalityLeak(pj,9,Set(a, b, c))
    |-1.5,0.5,6.0,15.0
    |-1.5,2.0,1.0,11.0
    |-1.5,2.0,1.0,14.0
    |-1.5,2.0,3.0,11.0
    |-1.5,2.0,3.0,14.0
    |0.25,-3.0,2.0,10.0
    |0.25,-3.0,2.0,13.0
    |0.25,-3.0,5.0,10.0
    |0.25,-3.0,5.0,13.0
    |""") { (b, l, r, empty) =>
    val none = b.publicJoin("pj0", empty, r, keys2, keys2)
    assert(none.size == 0)
    b.publicJoin("pj", l, r, keys2, keys2)
  }

  // ---------------------------------------------------- unread columns

  /** An operator over a left and a right relation that may read only the
    * output columns the predicate keeps.
    */
  private type Protocol = (MpcBackend, SharedRelation, SharedRelation, String => Boolean) => SharedRelation

  /** The counters, the ordered leakage and the opened output rows of
    * `protocol` over a filtered left relation `(k, v)` and a right relation
    * `(k, w)`, on a fresh seeded backend. With `payload`, each side also
    * carries a column its operator neither reads nor outputs, `3·v` or
    * `3·w`: a local product, so it draws nothing from the dealer and the
    * two runs see the same shares and permutations.
    */
  private def withPayload(mk: () => MpcBackend, payload: Boolean)(protocol: Protocol)
      : (CostSnapshot, Seq[LeakageEvent], Seq[Seq[Double]]) = {
    val b = mk()
    val lRows = (0 until 18).map(i => Seq((i * 7 % 5).toDouble, (i * 13 % 40).toDouble))
    val rRows = (0 until 11).map(i => Seq((i * 3 % 6).toDouble, (i + 50).toDouble))
    val l0 = b.filter(rel(b, Seq("k", "v"), lRows), "v", CmpOp.Gt, Right(8.0))
    val r0 = rel(b, Seq("k", "w"), rRows)
    val (l, r) =
      if (!payload) (l0, r0)
      else (b.arith(l0, ArithFn.Mul, "p", "v", Right(3.0)), b.arith(r0, ArithFn.Mul, "q", "w", Right(3.0)))
    b.meter.reset(); b.leakage.clear()
    val out = protocol(b, l, r, c => c != "p" && c != "q")
    val (cost, leaks) = (b.meter.snapshot, b.leakage.events)
    (cost, leaks, open(b, out))
  }

  private val sumCount = Seq(AggSpec(AggFn.Sum, Some("v"), "s"), AggSpec(AggFn.Count, None, "c"))

  private val unreadCases: Seq[(String, Protocol)] =
    Seq(AggFn.Sum, AggFn.Count, AggFn.Min, AggFn.Max).flatMap { fn =>
      val aggCol = if (fn == AggFn.Count) None else Some("v")
      Seq[(String, Protocol)](
        s"hybridAggregate $fn" -> ((b, l, _, _) =>
          b.hybridAggregate("ha", l, Seq("k"), Seq(AggSpec(fn, aggCol, "o")), pC)),
        s"aggregate $fn" -> ((b, l, _, _) => b.aggregate("agg", l, Seq("k"), Seq(AggSpec(fn, aggCol, "o")))))
    } ++ Seq[(String, Protocol)](
      "hybridAggregate Sum, Count" -> ((b, l, _, _) => b.hybridAggregate("ha", l, Seq("k"), sumCount, pC)),
      "aggregate Sum, Count" -> ((b, l, _, _) => b.aggregate("agg", l, Seq("k"), sumCount)),
      "globalAggregate Sum, Count" -> ((b, l, _, _) => b.globalAggregate(l, sumCount)),
      "hybridJoin" -> ((b, l, r, live) => b.hybridJoin("hj", l, r, Seq("k"), Seq("k"), pA, live)),
      "publicJoin" -> ((b, l, r, live) => b.publicJoin("pj", l, r, Seq("k"), Seq("k"), live)),
      "Cartesian join" -> ((b, l, r, live) => b.join("cj", l, r, Seq("k"), Seq("k"), live)))

  for ((engine, mk) <- Seq("sharemind" -> (() => sharemind(seed = 5L)), "obliv-c" -> (() => oblivc()));
       (name, protocol) <- unreadCases)
    test(s"$engine: $name: an unread column costs nothing") {
      val without = withPayload(mk, payload = false)(protocol)
      val payload = withPayload(mk, payload = true)(protocol)
      assert(payload == without)
      assert(without._3.nonEmpty)
    }
}
