package repro.mpc

import java.util.concurrent.{Callable, ForkJoinPool}

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.Props
import repro.core.{AggFn, AggSpec, ArithFn, CmpOp}
import MpcTestKit._

/** Relation-level correctness of the oblivious algorithms, checked against
  * plain Scala reference implementations.
  */
class ObliviousSpec extends AnyFunSuite {
  import ObliviousSpec.KernelRun

  private def genRows(maxRows: Int, cols: Int, maxKey: Int): Gen[Seq[Seq[Double]]] =
    for {
      n <- Gen.chooseNum(0, maxRows)
      rows <- Gen.listOfN(n, Gen.listOfN(cols, Gen.chooseNum(0, maxKey).map(_.toDouble)))
    } yield rows

  // ------------------------------------------------------------------ shuffle

  test("shuffle preserves the multiset of rows") {
    Props.forAll(genRows(40, 3, 9), runs = 30) { rows =>
      val b = sharemind()
      val r = rel(b, Seq("a", "b", "c"), rows)
      assertSameRows(open(b, Oblivious.shuffle(b.engine, r)), rows)
    }
  }

  test("shuffle charges shuffle elements and rounds") {
    val b = sharemind()
    val r = rel(b, Seq("a"), (1 to 16).map(i => Seq(i.toDouble)))
    val before = b.meter.shuffledElems
    Oblivious.shuffle(b.engine, r)
    assert(b.meter.shuffledElems > before)
  }

  // --------------------------------------------------------------------- sort

  test("bitonic sort orders rows ascending by key (incl. non-power-of-two)") {
    for (n <- Seq(0, 1, 2, 3, 7, 8, 9, 31, 33)) {
      val b = sharemind(seed = n + 1L)
      val rows = (0 until n).map(i => Seq(((i * 37) % 19).toDouble, i.toDouble))
      val sorted = open(b, Oblivious.sortBy(b.engine, rel(b, Seq("k", "v"), rows),
        Seq(Oblivious.SortKey(0))))
      assert(sorted.map(_.head) == rows.map(_.head).sorted, s"n=$n")
      assertSameRows(sorted, rows)
    }
  }

  test("bitonic sort supports descending order") {
    val b = sharemind()
    val rows = Seq(3, 1, 4, 1, 5, 9, 2, 6).map(x => Seq(x.toDouble))
    val sorted = open(b, Oblivious.sortBy(b.engine, rel(b, Seq("k"), rows),
      Seq(Oblivious.SortKey(0, ascending = false))))
    assert(sorted.map(_.head) == rows.map(_.head).sortBy(-_))
  }

  test("bitonic sort on two keys is lexicographic") {
    val b = sharemind()
    val rows = Seq(Seq(2.0, 1.0), Seq(1.0, 9.0), Seq(2.0, 0.0), Seq(1.0, 3.0))
    val sorted = open(b, Oblivious.sortBy(b.engine, rel(b, Seq("a", "b"), rows),
      Seq(Oblivious.SortKey(0), Oblivious.SortKey(1))))
    assert(sorted == Seq(Seq(1.0, 3.0), Seq(1.0, 9.0), Seq(2.0, 0.0), Seq(2.0, 1.0)))
  }

  test("sort is a property: output ascending and same multiset") {
    Props.forAll(genRows(33, 2, 9), runs = 20) { rows =>
      val b = sharemind()
      val sorted = open(b, Oblivious.sortBy(b.engine, rel(b, Seq("k", "v"), rows),
        Seq(Oblivious.SortKey(0))))
      assert(sorted.map(_.head) == sorted.map(_.head).sorted)
      assertSameRows(sorted, rows)
    }
  }

  test("sort moves invalid rows to the end and keeps them hidden") {
    val b = sharemind()
    val rows = Seq(Seq(5.0), Seq(1.0), Seq(3.0), Seq(2.0))
    // filter out value 3, then sort: the valid prefix must be 1,2,5.
    val filtered = b.filter(rel(b, Seq("k"), rows), "k", CmpOp.Neq, Right(3.0))
    val sorted = Oblivious.sortBy(b.engine, filtered, Seq(Oblivious.SortKey(0)))
    assert(sorted.size == 4, "size-hiding: row count unchanged")
    // By position (a reveal would shuffle): valid rows 1,2,5 first, then the
    // invalid one.
    assert(b.engine.idealOpen(sorted.validity.get).toSeq == Seq(1L, 1L, 1L, 0L))
    assert(b.engine.idealOpen(sorted.cols(0)).take(3).map(Fixed.decode).toSeq == Seq(1.0, 2.0, 5.0))
    assertSameRows(open(b, sorted), Seq(Seq(1.0), Seq(2.0), Seq(5.0)))
  }

  /** The pairs of each layer of the kernel's schedule over `n` rows, as
    * (lower row, upper row).
    */
  private def schedule(n: Int): Seq[Seq[(Int, Int)]] =
    Oblivious.sortLayers(n).map { case (p, k) =>
      (0 until Oblivious.layerPairs(n, p, k).toInt).map { t =>
        val lo = Oblivious.lowerRow(p.toInt, k.toInt, t)
        (lo, lo + k.toInt)
      }
    }.toSeq

  /** Batcher's odd–even merge sort over the next power of two p by its
    * definition, kept where both rows are below `n`: sort both halves, then
    * merge them by merging their even and their odd subsequences and
    * comparing neighbours r apart. A comparator of the merge of two runs of
    * P rows at distance k belongs to layer (P, k); the layers are in order
    * of P, then of k descending.
    */
  private def batcher(n: Int): Seq[Seq[(Int, Int)]] = {
    val p = Iterator.iterate(1)(_ << 1).dropWhile(_ < n).next()
    val pairs = Seq.newBuilder[((Int, Int), (Int, Int))]
    // Merge the sorted halves of the m rows from lo, taking every r-th row.
    def merge(lo: Int, m: Int, r: Int): Unit =
      if (2 * r < m) {
        merge(lo, m, 2 * r); merge(lo + r, m, 2 * r)
        (lo + r until lo + m - r by 2 * r).foreach(i => pairs += (((m / 2, r), (i, i + r))))
      } else pairs += (((m / 2, r), (lo, lo + r)))
    def sort(lo: Int, m: Int): Unit =
      if (m > 1) { sort(lo, m / 2); sort(lo + m / 2, m / 2); merge(lo, m, 1) }
    sort(0, p)
    val byLayer = pairs.result().groupMap(_._1)(_._2)
    Iterator.iterate(1)(_ << 1).takeWhile(_ < p).flatMap { mp =>
      Iterator.iterate(mp)(_ >> 1).takeWhile(_ > 0).map(k => byLayer((mp, k)).filter(_._2 < n))
    }.toSeq
  }

  test("the sort schedule is Batcher's network restricted to the real rows") {
    for (n <- 0 to 70) {
      val got = schedule(n)
      assert(got.map(_.toSet) == batcher(n).map(_.toSet), s"n=$n")
      got.foreach { layer =>
        assert(layer.forall { case (lo, hi) => 0 <= lo && lo < hi && hi < n }, s"n=$n")
        assert(layer.flatMap { case (lo, hi) => Seq(lo, hi) }.distinct.size == 2 * layer.size,
          s"n=$n: a layer's pairs must be disjoint")
        assert(layer.size <= n / 2)
      }
    }
  }

  test("the sort schedule sorts every 0/1 input (0-1 principle)") {
    for (n <- 1 to 16) {
      val pairs = schedule(n).flatten.toArray
      val a = new Array[Int](n)
      for (bits <- 0 until (1 << n)) {
        var i = 0
        while (i < n) { a(i) = (bits >> i) & 1; i += 1 }
        pairs.foreach { case (lo, hi) => if (a(lo) > a(hi)) { a(lo) = 0; a(hi) = 1 } }
        val ones = Integer.bitCount(bits)
        assert((0 until n).forall(i => a(i) == (if (i >= n - ones) 1 else 0)), s"n=$n input=$bits")
      }
    }
  }

  test("sortPairs counts the network's pairs between real rows, for every n <= 5,000") {
    // A sort of n rows runs the merges of runs of 1, 2, 4, … rows up to half
    // the next power of two p, and each merge is the same whatever p; it
    // keeps the pairs whose upper row is below n.
    val max = 8192
    val layers = batcher(max)
    val offsets = (1 to 13).scanLeft(0)(_ + _) // the merge of runs of 2^(s-1) has s layers
    val below = (1 to 13).map { s =>
      val count = new Array[Long](max + 1)
      layers.slice(offsets(s - 1), offsets(s)).flatten.foreach { case (_, hi) => count(hi + 1) += 1 }
      (0 until max).foreach(y => count(y + 1) += count(y))
      count // count(n): the pairs of that merge with upper row below n
    }
    for (n <- 0 to 5000) {
      val merges = if (n <= 1) 0 else 32 - Integer.numberOfLeadingZeros(n - 1)
      assert(Oblivious.sortPairs(n) == below.take(merges).map(_(n)).sum, s"n=$n")
    }
  }

  // ------------------------------------------------------------------- filter

  test("filter is size-hiding and order-preserving; compact reveals") {
    val b = sharemind()
    val rows = Seq(Seq(1.0, 10.0), Seq(2.0, 20.0), Seq(3.0, 30.0), Seq(2.0, 40.0))
    val f = b.filter(rel(b, Seq("k", "v"), rows), "k", CmpOp.Eq, Right(2.0))
    assert(f.size == 4 && f.validity.isDefined)
    assertSameRows(open(b, f), Seq(Seq(2.0, 20.0), Seq(2.0, 40.0)))
  }

  test("all comparison operators filter correctly") {
    val rows = (1 to 9).map(i => Seq(i.toDouble))
    val cases = Seq[(CmpOp, Double => Boolean)](
      (CmpOp.Eq, _ == 5.0), (CmpOp.Neq, _ != 5.0), (CmpOp.Lt, _ < 5.0),
      (CmpOp.Leq, _ <= 5.0), (CmpOp.Gt, _ > 5.0), (CmpOp.Geq, _ >= 5.0))
    cases.foreach { case (cmp, pred) =>
      val b = sharemind()
      val f = b.filter(rel(b, Seq("k"), rows), "k", cmp, Right(5.0))
      assertSameRows(open(b, f), rows.filter(r => pred(r.head)))
    }
  }

  test("column-vs-column filter works") {
    val b = sharemind()
    val rows = Seq(Seq(1.0, 2.0), Seq(3.0, 3.0), Seq(5.0, 4.0))
    val f = b.filter(rel(b, Seq("a", "b2"), rows), "b2", CmpOp.Geq, Left("a"))
    assertSameRows(open(b, f), Seq(Seq(1.0, 2.0), Seq(3.0, 3.0)))
  }

  test("stacked filters AND their predicates") {
    val b = sharemind()
    val rows = (1 to 10).map(i => Seq(i.toDouble, (i % 3).toDouble))
    val f1 = b.filter(rel(b, Seq("k", "m"), rows), "k", CmpOp.Gt, Right(3.0))
    val f2 = b.filter(f1, "m", CmpOp.Eq, Right(1.0))
    assertSameRows(open(b, f2), rows.filter(r => r.head > 3 && r(1) == 1.0))
  }

  // -------------------------------------------------------------- aggregation

  private def refAgg(rows: Seq[Seq[Double]], fn: AggFn): Map[Double, Double] =
    rows.groupBy(_.head).map { case (k, rs) =>
      k -> (fn match {
        case AggFn.Sum   => rs.map(_(1)).sum
        case AggFn.Count => rs.size.toDouble
        case AggFn.Min   => rs.map(_(1)).min
        case AggFn.Max   => rs.map(_(1)).max
      })
    }

  for (fn <- Seq(AggFn.Sum, AggFn.Count, AggFn.Min, AggFn.Max)) {
    test(s"oblivious aggregation computes $fn per group") {
      Props.forAll(genRows(25, 2, 5), runs = 15) { rows =>
        val b = sharemind()
        val out = b.aggregate("t", rel(b, Seq("k", "v"), rows), Seq("k"),
          Seq(AggSpec(fn, if (fn == AggFn.Count) None else Some("v"), "out")))
        val expected = refAgg(rows, fn).map { case (k, v) => Seq(k, v) }.toSeq
        assertSameRows(open(b, out), expected)
      }
    }
  }

  test("aggregation after filter ignores invalid rows") {
    val b = sharemind()
    val rows = Seq(Seq(1.0, 10.0), Seq(1.0, 20.0), Seq(2.0, 30.0), Seq(2.0, 40.0))
    val f = b.filter(rel(b, Seq("k", "v"), rows), "v", CmpOp.Neq, Right(30.0))
    val out = b.aggregate("t", f, Seq("k"), Seq(AggSpec(AggFn.Sum, Some("v"), "s")))
    assertSameRows(open(b, out), Seq(Seq(1.0, 30.0), Seq(2.0, 40.0)))
  }

  test("aggregation drops groups whose rows are all invalid") {
    val b = sharemind()
    val rows = Seq(Seq(1.0, 10.0), Seq(2.0, 30.0))
    val f = b.filter(rel(b, Seq("k", "v"), rows), "k", CmpOp.Eq, Right(1.0))
    val out = b.aggregate("t", f, Seq("k"), Seq(AggSpec(AggFn.Sum, Some("v"), "s")))
    assertSameRows(open(b, out), Seq(Seq(1.0, 10.0)))
  }

  test("multi-column group-by aggregation") {
    val b = sharemind()
    val rows = Seq(Seq(1.0, 1.0, 5.0), Seq(1.0, 2.0, 6.0), Seq(1.0, 1.0, 7.0))
    val out = b.aggregate("t", rel(b, Seq("g1", "g2", "v"), rows), Seq("g1", "g2"),
      Seq(AggSpec(AggFn.Sum, Some("v"), "s")))
    assertSameRows(open(b, out), Seq(Seq(1.0, 1.0, 12.0), Seq(1.0, 2.0, 6.0)))
  }

  test("aggregation reveals only the group count (leakage check)") {
    val b = sharemind()
    val rows = Seq(Seq(1.0, 1.0), Seq(2.0, 1.0), Seq(1.0, 1.0))
    b.aggregate("aggrel", rel(b, Seq("k", "v"), rows), Seq("k"), Seq(AggSpec(AggFn.Sum, Some("v"), "s")))
    val cards = b.leakage.cardinalities.filter(_.relation == "aggrel")
    assert(cards.map(_.rows) == Seq(2L))
    assert(b.leakage.columns.isEmpty, "no column values may leak")
  }

  test("global aggregation: sum, count, min, max over the whole relation") {
    val rows = Seq(Seq(4.0), Seq(9.0), Seq(1.0), Seq(6.0))
    val expect = Map[AggFn, Double](AggFn.Sum -> 20.0, AggFn.Count -> 4.0,
      AggFn.Min -> 1.0, AggFn.Max -> 9.0)
    expect.foreach { case (fn, want) =>
      val b = sharemind()
      val out = b.globalAggregate(rel(b, Seq("v"), rows),
        Seq(AggSpec(fn, if (fn == AggFn.Count) None else Some("v"), "out")))
      assert(open(b, out) == Seq(Seq(want)), fn.toString)
    }
  }

  test("global count respects validity") {
    val b = sharemind()
    val r = b.filter(rel(b, Seq("v"), (1 to 6).map(i => Seq(i.toDouble))), "v", CmpOp.Gt, Right(2.0))
    assert(open(b, b.globalAggregate(r, Seq(AggSpec(AggFn.Count, None, "c")))) == Seq(Seq(4.0)))
  }

  test("preSorted aggregation over an already-grouped relation matches") {
    val b = sharemind()
    val rows = Seq(Seq(1.0, 5.0), Seq(1.0, 6.0), Seq(2.0, 7.0), Seq(3.0, 1.0), Seq(3.0, 1.0))
    val cmpsBefore = b.meter.cmps
    val out = b.aggregate("t", rel(b, Seq("k", "v"), rows), Seq("k"),
      Seq(AggSpec(AggFn.Sum, Some("v"), "s")), preSorted = true)
    assert(b.meter.cmps == cmpsBefore, "preSorted aggregation must skip the sorting network")
    assertSameRows(open(b, out), Seq(Seq(1.0, 11.0), Seq(2.0, 7.0), Seq(3.0, 2.0)))
  }

  // ----------------------------------------------------------------- distinct

  test("distinct keeps one copy per key (property)") {
    Props.forAll(genRows(20, 1, 6), runs = 20) { rows =>
      val b = sharemind()
      val out = b.distinct(rel(b, Seq("k"), rows), preSorted = false)
      assertSameRows(open(b, out), rows.distinct)
    }
  }

  test("preSorted distinct on a sorted single-column relation is linear") {
    val b = sharemind()
    val rows = Seq(1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 7.0).map(Seq(_))
    val cmpsBefore = b.meter.cmps
    val out = b.distinct(rel(b, Seq("k"), rows), preSorted = true)
    assert(b.meter.cmps == cmpsBefore, "preSorted distinct must not compare-exchange")
    assertSameRows(open(b, out), Seq(Seq(1.0), Seq(2.0), Seq(3.0), Seq(7.0)))
  }

  test("distinct respects validity from a prior filter") {
    val b = sharemind()
    val rows = Seq(Seq(1.0), Seq(1.0), Seq(2.0), Seq(3.0), Seq(3.0))
    val f = b.filter(rel(b, Seq("k"), rows), "k", CmpOp.Neq, Right(2.0))
    val out = b.distinct(f, preSorted = false)
    assertSameRows(open(b, out), Seq(Seq(1.0), Seq(3.0)))
  }

  test("distinct after filter then count (the aspirin tail) is exact") {
    val b = sharemind()
    val rows = Seq(Seq(1.0), Seq(1.0), Seq(2.0), Seq(5.0), Seq(5.0), Seq(9.0))
    val f = b.filter(rel(b, Seq("k"), rows), "k", CmpOp.Lt, Right(6.0))
    val d = b.distinct(f, preSorted = true) // input sorted by k
    val c = b.globalAggregate(d, Seq(AggSpec(AggFn.Count, None, "rc")))
    assert(open(b, c) == Seq(Seq(3.0)))
  }

  // --------------------------------------------------------------------- join

  private def refJoin(l: Seq[Seq[Double]], r: Seq[Seq[Double]]): Seq[Seq[Double]] =
    for { lr <- l; rr <- r; if lr.head == rr.head } yield lr ++ rr.tail

  test("Cartesian MPC join matches a cleartext join (property)") {
    Props.forAll2(genRows(12, 2, 5), genRows(12, 2, 5), runs = 15) { (l, r) =>
      val b = sharemind()
      val out = b.join("j", rel(b, Seq("k", "x"), l), rel(b, Seq("k", "y"), r),
        Seq("k"), Seq("k"))
      assert(out.schema == Vector("k", "x", "y"))
      assertSameRows(open(b, out), refJoin(l, r))
    }
  }

  test("join respects validity on both sides") {
    val b = sharemind()
    val l = Seq(Seq(1.0, 10.0), Seq(2.0, 20.0))
    val r = Seq(Seq(1.0, 30.0), Seq(2.0, 40.0))
    val lf = b.filter(rel(b, Seq("k", "x"), l), "k", CmpOp.Eq, Right(1.0))
    val rr = rel(b, Seq("k", "y"), r)
    assertSameRows(open(b, b.join("j", lf, rr, Seq("k"), Seq("k"))), Seq(Seq(1.0, 10.0, 30.0)))
  }

  test("join charges O(n*m) equality tests and leaks only the output size") {
    val b = sharemind()
    val l = (1 to 20).map(i => Seq(i.toDouble, 0.0))
    val r = (1 to 30).map(i => Seq(i.toDouble, 0.0))
    val eqsBefore = b.meter.eqs
    b.join("jrel", rel(b, Seq("k", "x"), l), rel(b, Seq("k", "y"), r), Seq("k"), Seq("k"))
    assert(b.meter.eqs - eqsBefore == 600L)
    assert(b.leakage.cardinalities.exists(c => c.relation == "jrel" && c.rows == 20L))
  }

  test("multi-key join") {
    val b = sharemind()
    val l = Seq(Seq(1.0, 1.0, 5.0), Seq(1.0, 2.0, 6.0))
    val r = Seq(Seq(1.0, 1.0, 7.0), Seq(2.0, 2.0, 8.0))
    val out = b.join("j", rel(b, Seq("a", "b2", "x"), l), rel(b, Seq("a", "b2", "y"), r),
      Seq("a", "b2"), Seq("a", "b2"))
    assertSameRows(open(b, out), Seq(Seq(1.0, 1.0, 5.0, 7.0)))
  }

  // ---------------------------------------------------------- blocked kernels

  private def kernelRun(input: MpcBackend => SharedRelation)(
      kernel: (MpcBackend, SharedRelation) => SharedRelation): KernelRun = {
    val b = sharemind()
    val in = input(b)
    b.meter.reset()
    val out = kernel(b, in)
    val cost = b.meter.snapshot
    KernelRun((out.cols ++ out.validity).flatMap(_.parts.map(_.toSeq)), cost, open(b, out))
  }

  /** `body` on the common pool and inside a one-thread ForkJoin pool, where
    * the blocks' parallel streams then run one after another: the two runs
    * must leave identical rows, counters and share arrays. Returns the first.
    */
  private def sameOnBothPools(body: => KernelRun): KernelRun = {
    val common = body
    val pool = new ForkJoinPool(1)
    val single =
      try pool.submit(new Callable[KernelRun] { def call(): KernelRun = body }).get()
      finally pool.shutdown()
    assert(single.rows == common.rows)
    assert(single.cost == common.cost)
    val sameShares = single.shares == common.shares
    assert(sameShares, "share arrays differ between the two schedules")
    common
  }

  test("a blocked sort does not depend on the schedule and charges CostModel.sort") {
    val rnd = new scala.util.Random(11)
    val rows = Seq.fill(5000)(Seq(rnd.nextInt(20), rnd.nextInt(100), rnd.nextInt(50)).map(_.toDouble))
    assert(rows.size / 2 > Oblivious.SortBlock, "the sort must span several blocks")
    val keys = Seq(Oblivious.SortKey(0), Oblivious.SortKey(1, ascending = false))
    for (validity <- Seq(true, false)) {
      val kept = if (validity) rows.filter(_(2) > 10.0) else rows
      val run = sameOnBothPools(kernelRun { b =>
        val r = rel(b, Seq("a", "b2", "v"), rows)
        if (validity) b.filter(r, "v", CmpOp.Gt, Right(10.0)) else r
      } { (b, in) =>
        val sorted = Oblivious.sortBy(b.engine, in, keys)
        // By position (a reveal shuffles): the valid rows come first, by keys.
        assert(sorted.validity.isDefined == validity)
        sorted.validity.foreach { v =>
          assert(b.engine.idealOpen(v).toSeq ==
            Seq.fill(kept.size)(1L) ++ Seq.fill(rows.size - kept.size)(0L))
        }
        val a = b.engine.idealOpen(sorted.cols(0)).map(Fixed.decode)
        val b2 = b.engine.idealOpen(sorted.cols(1)).map(Fixed.decode)
        assert(a.zip(b2).take(kept.size).toSeq == kept.map(r => (r(0), r(1))).sortBy(k => (k._1, -k._2)))
        sorted
      })
      assertSameRows(run.rows, kept)
      assert(run.cost == CostModel.sort(CostParams.Sharemind, rows.size.toLong, 3, Seq(true, false),
        validity), s"validity=$validity")
    }
  }

  test("a blocked Cartesian join does not depend on the schedule") {
    val rnd = new scala.util.Random(12)
    val l = Seq.fill(3 * Oblivious.JoinBlock + 5)(Seq(rnd.nextInt(30), rnd.nextInt(9)).map(_.toDouble))
    val r = Seq.fill(40)(Seq(rnd.nextInt(30), rnd.nextInt(9)).map(_.toDouble))
    val run = sameOnBothPools(kernelRun { b =>
      b.filter(rel(b, Seq("k", "x"), l), "x", CmpOp.Neq, Right(4.0))
    } { (b, in) =>
      b.join("j", in, rel(b, Seq("k", "y"), r), Seq("k"), Seq("k"))
    })
    assertSameRows(run.rows, refJoin(l.filter(_(1) != 4.0), r))
    assert(run.cost.eqs == l.size.toLong * r.size)
  }

  // ---------------------------------------------------------- select / limit

  test("oblivious indexing selects the addressed rows") {
    val b = sharemind()
    val rows = (0 until 10).map(i => Seq(i.toDouble, (i * 100).toDouble))
    val r = rel(b, Seq("i", "v"), rows)
    val idxs = b.engine.input(Array(3L, 7L, 0L, 7L))
    val out = Oblivious.select(b.engine, r, idxs)
    assert(open(b, out) == Seq(Seq(3.0, 300.0), Seq(7.0, 700.0), Seq(0.0, 0.0), Seq(7.0, 700.0)))
  }

  test("oblivious indexing rejects out-of-range indexes") {
    val b = sharemind()
    val r = rel(b, Seq("v"), Seq(Seq(1.0)))
    assertThrows[IllegalArgumentException](
      Oblivious.select(b.engine, r, b.engine.input(Array(5L))))
  }

  test("limit takes the first k rows") {
    val b = sharemind()
    val r = rel(b, Seq("v"), (1 to 5).map(i => Seq(i.toDouble)))
    assert(open(b, b.limit("l", r, 3, sorted = false)) == Seq(Seq(1.0), Seq(2.0), Seq(3.0)))
    assert(open(b, b.limit("l", r, 9, sorted = false)).size == 5)
  }

  test("limit after an oblivious sort keeps the sorted order of the valid rows") {
    val b = sharemind()
    val rows = Seq(9.0, 4.0, 1.0, 7.0, 3.0, 8.0, 2.0).map(Seq(_))
    val sorted = b.sort(b.filter(rel(b, Seq("k"), rows), "k", CmpOp.Gt, Right(2.0)), Seq("k" -> true))
    b.leakage.clear()
    assert(open(b, b.limit("l", sorted, 3, sorted = true)) == Seq(Seq(3.0), Seq(4.0), Seq(7.0)))
    assert(open(b, b.limit("l", sorted, 9, sorted = true)).map(_.head) == Seq(3.0, 4.0, 7.0, 8.0, 9.0))
    // Only the prefix's valid count is revealed, once per limit.
    assert(b.leakage.cardinalities.map(_.rows) == Seq(3L, 5L))
  }

  // ----------------------------------------------------- arith / const / etc

  test("row-wise arithmetic against scalars and columns") {
    val b = sharemind()
    val r = rel(b, Seq("a", "b2"), Seq(Seq(6.0, 3.0), Seq(10.0, 5.0)))
    assert(open(b, b.arith(r, ArithFn.Add, "o", "a", Right(1.0))).map(_.last) == Seq(7.0, 11.0))
    assert(open(b, b.arith(r, ArithFn.Sub, "o", "a", Right(1.0))).map(_.last) == Seq(5.0, 9.0))
    assert(open(b, b.arith(r, ArithFn.Mul, "o", "a", Right(3.0))).map(_.last) == Seq(18.0, 30.0))
    assert(open(b, b.arith(r, ArithFn.Div, "o", "a", Right(2.0))).map(_.last) == Seq(3.0, 5.0))
    assert(open(b, b.arith(r, ArithFn.Add, "o", "a", Left("b2"))).map(_.last) == Seq(9.0, 15.0))
    assert(open(b, b.arith(r, ArithFn.Mul, "o", "a", Left("b2"))).map(_.last) == Seq(18.0, 50.0))
    assert(open(b, b.arith(r, ArithFn.Div, "o", "a", Left("b2"))).map(_.last) == Seq(2.0, 2.0))
  }

  test("arith replaces an existing output column in place") {
    val b = sharemind()
    val r = rel(b, Seq("a"), Seq(Seq(4.0)))
    val out = b.arith(r, ArithFn.Mul, "a", "a", Right(2.0))
    assert(out.schema == Vector("a"))
    assert(open(b, out) == Seq(Seq(8.0)))
  }

  test("constCol appends a public constant") {
    val b = sharemind()
    val out = b.constCol(rel(b, Seq("a"), Seq(Seq(1.0), Seq(2.0))), "k", 7.0)
    assert(out.schema == Vector("a", "k"))
    assert(open(b, out).map(_.last) == Seq(7.0, 7.0))
  }

  test("project keeps and reorders columns") {
    val b = sharemind()
    val r = rel(b, Seq("a", "b2", "c"), Seq(Seq(1.0, 2.0, 3.0)))
    val out = b.project(r, Seq("c", "a"))
    assert(out.schema == Vector("c", "a"))
    assert(open(b, out) == Seq(Seq(3.0, 1.0)))
  }

  test("concat appends relations and harmonizes validity") {
    val b = sharemind()
    val r1 = b.filter(rel(b, Seq("a"), Seq(Seq(1.0), Seq(2.0))), "a", CmpOp.Eq, Right(1.0))
    val r2 = rel(b, Seq("a"), Seq(Seq(3.0)))
    val out = b.concat(Seq(r1, r2))
    assert(out.size == 3)
    assertSameRows(open(b, out), Seq(Seq(1.0), Seq(3.0)))
  }

  test("concat rejects mismatched schemas") {
    val b = sharemind()
    assertThrows[IllegalArgumentException](
      b.concat(Seq(rel(b, Seq("a"), Seq()), rel(b, Seq("z"), Seq()))))
  }

  test("close logs input cardinality to all parties") {
    val b = sharemind()
    rel(b, Seq("a"), Seq(Seq(1.0), Seq(2.0)))
    assert(b.leakage.cardinalities.exists(c => c.rows == 2L && c.to == parties3))
  }

  test("reveal decodes fixed-point to doubles exactly for integers") {
    val b = sharemind()
    val rows = Seq(Seq(123456.0, -789.0))
    assert(open(b, rel(b, Seq("a", "b2"), rows)) == rows)
  }

  test("garbled-circuit backend runs the same relational ops") {
    val b = oblivc()
    val rows = Seq(Seq(1.0, 10.0), Seq(2.0, 20.0), Seq(1.0, 30.0))
    val out = b.aggregate("t", rel(b, Seq("k", "v"), rows), Seq("k"),
      Seq(AggSpec(AggFn.Sum, Some("v"), "s")))
    assertSameRows(open(b, out), Seq(Seq(1.0, 40.0), Seq(2.0, 20.0)))
    assert(b.meter.gates > 0)
  }

  test("garbled-circuit join OOMs at the Fig. 1b anchor size") {
    val b = oblivc()
    val mk = (n: Int) => (1 to n).map(i => Seq(i.toDouble, 0.0))
    assertThrows[MpcOutOfMemory] {
      b.join("j", rel(b, Seq("k", "x"), mk(20000)), rel(b, Seq("k", "y"), mk(20000)),
        Seq("k"), Seq("k"))
    }
  }
}

object ObliviousSpec {
  /** What a kernel leaves behind on a fresh backend of a fixed seed: its
    * output's share arrays (validity included), the counters the kernel
    * alone charged, and the output's revealed rows.
    */
  final case class KernelRun(shares: Seq[Seq[Long]], cost: CostSnapshot, rows: Seq[Seq[Double]])
}
