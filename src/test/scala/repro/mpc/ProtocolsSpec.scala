package repro.mpc

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.Props
import repro.core.{AggFn, CmpOp}
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
          if (fn == AggFn.Count) None else Some("v"), fn, "out", stp = pA)
        assertSameRows(open(b, out), refAgg(rows, fn))
      }
    }
  }

  test("hybrid aggregation reveals the group column only to the STP") {
    val b = sharemind()
    val rows = Seq(Seq(1.0, 5.0), Seq(2.0, 6.0), Seq(1.0, 7.0))
    b.hybridAggregate("ha", rel(b, Seq("k", "v"), rows), Seq("k"), Some("v"),
      AggFn.Sum, "s", stp = pC)
    val colLeaks = b.leakage.columns.filter(_.relation == "ha")
    assert(colLeaks.map(_.column) == Seq("k") && colLeaks.forall(_.to == Set(pC)))
    assert(b.leakage.cardinalities.exists(c => c.relation == "ha" && c.rows == 2L && c.to == parties3))
  }

  test("hybrid aggregation avoids oblivious comparisons for sum/count") {
    val b = sharemind()
    val rows = (1 to 100).map(i => Seq((i % 10).toDouble, 1.0))
    val cmpsBefore = b.meter.cmps; val eqsBefore = b.meter.eqs
    b.hybridAggregate("ha", rel(b, Seq("k", "v"), rows), Seq("k"), Some("v"),
      AggFn.Sum, "s", stp = pA)
    assert(b.meter.cmps == cmpsBefore && b.meter.eqs == eqsBefore,
      "sorting and equality happen in the clear at the STP")
  }

  test("hybrid aggregation is asymptotically cheaper than the MPC aggregation") {
    def modeled(hybrid: Boolean): Double = {
      val b = sharemind()
      val rows = (1 to 400).map(i => Seq((i % 20).toDouble, 1.0))
      if (hybrid)
        b.hybridAggregate("a", rel(b, Seq("k", "v"), rows), Seq("k"), Some("v"), AggFn.Sum, "s", pA)
      else
        b.aggregate("a", rel(b, Seq("k", "v"), rows), Seq("k"), Some("v"), AggFn.Sum, "s")
      b.meter.modeledSeconds
    }
    assert(modeled(hybrid = true) * 3 < modeled(hybrid = false))
  }

  test("hybrid operators reject uncompacted handling silently leaking validity") {
    // Filtered (validity-carrying) inputs are compacted first, which logs
    // the surviving cardinality — verify the compact leak is recorded.
    val b = sharemind()
    val l = b.filterLit(rel(b, Seq("k", "x"), Seq(Seq(1.0, 1.0), Seq(2.0, 2.0))), "k", CmpOp.Eq, 1.0)
    val r = rel(b, Seq("k", "y"), Seq(Seq(1.0, 3.0)))
    val out = b.hybridJoin("hj", l, r, Seq("k"), Seq("k"), pA)
    assertSameRows(open(b, out), Seq(Seq(1.0, 1.0, 3.0)))
    assert(b.leakage.cardinalities.exists(_.relation == "hj:left"))
  }

  test("hybrid aggregation on a filtered relation compacts then aggregates") {
    val b = sharemind()
    val rows = Seq(Seq(1.0, 5.0), Seq(1.0, 6.0), Seq(2.0, 100.0))
    val f = b.filterLit(rel(b, Seq("k", "v"), rows), "v", CmpOp.Lt, 50.0)
    val out = b.hybridAggregate("ha", f, Seq("k"), Some("v"), AggFn.Sum, "s", pA)
    assertSameRows(open(b, out), Seq(Seq(1.0, 11.0)))
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
    |CostSnapshot(69,0,0,447,33,333,0,0,0,0.050358)
    |ColumnLeak(hj0,left:k1,Set(a))
    |ColumnLeak(hj0,left:k2,Set(a))
    |ColumnLeak(hj0,right:k1,Set(a))
    |ColumnLeak(hj0,right:k2,Set(a))
    |CardinalityLeak(hj0,0,Set(a, b, c))
    |ColumnLeak(hj,left:k1,Set(a))
    |ColumnLeak(hj,left:k2,Set(a))
    |ColumnLeak(hj,right:k1,Set(a))
    |ColumnLeak(hj,right:k2,Set(a))
    |CardinalityLeak(hj,9,Set(a, b, c))
    |-1.5,2.0,3.0,14.0
    |0.25,-3.0,5.0,10.0
    |-1.5,2.0,1.0,11.0
    |-1.5,2.0,3.0,11.0
    |0.25,-3.0,2.0,10.0
    |-1.5,2.0,1.0,14.0
    |0.25,-3.0,2.0,13.0
    |0.25,-3.0,5.0,13.0
    |-1.5,0.5,6.0,15.0
    |""") { (b, l, r, empty) =>
    val none = b.hybridJoin("hj0", l, empty, keys2, keys2, pA)
    assert(none.size == 0)
    b.hybridJoin("hj", l, r, keys2, keys2, pA)
  }

  pinnedCase("hybrid aggregation", """
    |CostSnapshot(21,0,0,6,8,147,0,0,0,0.013388)
    |ColumnLeak(ha,k1,Set(c))
    |ColumnLeak(ha,k2,Set(c))
    |CardinalityLeak(ha,5,Set(a, b, c))
    |0.25,-3.0,7.0
    |4.0,0.0,4.0
    |-1.5,2.0,4.0
    |-2.0,2.0,7.0
    |-1.5,0.5,6.0
    |""") { (b, l, _, empty) =>
    val none = b.hybridAggregate("ha0", empty, keys2, Some("y"), AggFn.Sum, "s", pC)
    assert(none.size == 0)
    b.hybridAggregate("ha", l, keys2, Some("x"), AggFn.Sum, "s", pC)
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
}
