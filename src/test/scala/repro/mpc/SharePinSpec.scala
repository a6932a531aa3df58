package repro.mpc

import java.nio.ByteBuffer
import java.security.MessageDigest

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{AggFn, AggSpec, CmpOp}
import MpcTestKit._

/** Pins the exact shares and counters of both engines on a fixed script:
  *   - every elementwise operation, whole-column, in offset form into a
  *     fresh column, and in offset form with `out` aliasing an input;
  *   - an odd–even merge sort of 3,000 rows and a Cartesian join of
  *     300 × 60 rows,
  *     both of several blocks;
  *   - a hybrid join, a hybrid aggregation and a public join on seeded
  *     backends;
  *   - every other relational operator on a seeded backend: the
  *     aggregations' folds (sorted, preSorted, global and hybrid, each
  *     function), both paths of distinct and of limit, the six comparisons
  *     against a literal and against a column, and compaction; with the
  *     leakage events they record.
  *
  * Each section gives one line: a digest of every share array it produced,
  * in order, and the meter's `CostSnapshot`. A change to an engine that moves
  * one draw, one share or one charge changes a line here, whatever the
  * opened values.
  */
class SharePinSpec extends AnyFunSuite {
  import SharePinSpec._

  private def ss(): MpcEngine = new SecretSharingEngine(7L, new CostMeter(CostParams.Sharemind))
  private def gc(): MpcEngine = new GarbledCircuitEngine(new CostMeter(CostParams.OblivC))

  private def fx(xs: Long*): Array[Long] = xs.map(x => Fixed.encode(x.toDouble)).toArray

  /** Every elementwise operation in its three forms, then `open`. */
  private def ops(e: MpcEngine, d: Digest): Unit = {
    val xs = fx(5, -3, 7, 0, 12, -8, 1, 7); val ys = fx(2, 4, 7, -1, 12, 3, -5, 9)
    val flags = Array(1L, 0L, 1L, 1L, 0L, 0L, 1L, 0L)
    val f = e.input(flags)
    d.add(f)
    type Op = (SharedCol, SharedCol, SharedCol, Int, Int, Int, Int) => Unit
    val binary: Seq[Op] = Seq(
      e.add(_, _, _, _, _, _, _), e.sub(_, _, _, _, _, _, _), e.mulRaw(_, _, _, _, _, _, _),
      e.mulFx(_, _, _, _, _, _, _), e.divFx(_, _, _, _, _, _, _), e.eq(_, _, _, _, _, _, _),
      e.lt(_, _, _, _, _, _, _), e.mulFlag(_, _, _, _, _, _, _),
      (a, b, o, n, ai, bi, oi) => e.mux(f, a, b, o, n, ci = bi, ai = ai, bi = bi, oi = oi))
    val unary: Seq[Op] = Seq(
      (a, _, o, n, ai, _, oi) => e.addPub(a, -11L, o, n, ai, oi),
      (a, _, o, n, ai, _, oi) => e.mulPub(a, 3L, o, n, ai, oi),
      (a, _, o, n, ai, _, oi) => e.not(a, o, n, ai, oi))
    (binary ++ unary).foreach { op =>
      val a = e.input(xs); val b = e.input(ys)
      d.add(a); d.add(b)
      val whole = e.alloc(8)
      op(a, b, whole, 8, 0, 0, 0)
      val off = e.alloc(8)
      op(a, b, off, 3, 1, 4, 2)
      op(a, b, b, 3, 0, 5, 5) // out aliases b at its own offset
      op(a, b, a, 4, 2, 1, 2) // out aliases a at its own offset
      Seq(whole, off, a, b).foreach(d.add)
    }
    // The allocating forms and the compositions built on them.
    val a = e.input(xs); val b = e.input(ys)
    Seq(e.add(a, b), e.sub(a, b), e.addPub(a, 4L), e.mulPub(a, -2L), e.not(f), e.mulRaw(a, b),
      e.mulFx(a, b), e.divFx(a, b), e.eq(a, b), e.lt(a, b), e.mulFlag(f, a), e.mux(f, a, b),
      e.and(f, f), e.constant(9L, 5)).foreach(d.add)
    d.addAll(e.open(Seq(a, b)): _*)
  }

  /** 3,000 rows: the wider sorting-network layers run in two blocks. */
  private def sort(e: MpcEngine, d: Digest): Unit = {
    val n = 3000
    val rel = SharedRelation(Vector("k", "v"),
      Vector(e.input(Array.tabulate(n)(i => Fixed.encode(((i * 7919L) % 97).toDouble))),
        e.input(Array.tabulate(n)(i => Fixed.encode(((i * 31L) % 1009).toDouble)))),
      Some(e.input(Array.tabulate(n)(i => if (i % 5 == 3) 0L else 1L))))
    val out = Oblivious.sortBy(e, rel, Seq(Oblivious.SortKey(0), Oblivious.SortKey(1, ascending = false)))
    (out.cols ++ out.validity).foreach(d.add)
  }

  /** 300 × 60 rows: three blocks of left rows. */
  private def join(e: MpcEngine, d: Digest): Unit = {
    def side(n: Int, keys: Int, seed: Int) = SharedRelation(Vector("k", s"v$seed"),
      Vector(e.input(Array.tabulate(n)(i => Fixed.encode(((i * seed) % keys).toDouble))),
        e.input(Array.tabulate(n)(i => Fixed.encode((i + seed).toDouble)))))
    val left = side(300, 40, 7)
    val l = left.copy(validity = Some(e.input(Array.tabulate(300)(i => if (i % 4 == 1) 0L else 1L))))
    val out = Oblivious.cartesianJoin(e, l, side(60, 40, 11), Seq(0), Seq(0))
    out.cols.foreach(d.add)
  }

  /** Hybrid join, hybrid aggregation and public join on one backend. */
  private def protocols(b: MpcBackend, d: Digest): Unit = {
    def rows(n: Int, keys: Int, seed: Int) =
      (0 until n).map(i => Seq(((i * seed) % keys).toDouble, (i + seed).toDouble))
    val l = b.filter(rel(b, Seq("k", "x"), rows(40, 9, 7)), "x", CmpOp.Gt, Right(15.0))
    val r = rel(b, Seq("k", "y"), rows(30, 9, 5))
    val hj = b.hybridJoin("hj", l, r, Seq("k"), Seq("k"), stp = pA)
    val ha = b.hybridAggregate("ha", hj, Seq("k"), Seq(AggSpec(AggFn.Max, Some("y"), "m")), stp = pA)
    val pj = b.publicJoin("pj", rel(b, Seq("k", "x"), rows(25, 6, 3)), r, Seq("k"), Seq("k"))
    Seq(hj, ha, pj).foreach(o => (o.cols ++ o.validity).foreach(d.add))
  }

  /** Every relational operator not pinned by [[protocols]], on inputs
    * with and without a validity column.
    */
  private def operators(b: MpcBackend, d: Digest): Unit = {
    def rows(n: Int, keys: Int, seed: Int) =
      (0 until n).map(i => Seq(((i * seed) % keys).toDouble, ((i * 13 + seed) % 29).toDouble))
    val r = rel(b, Seq("k", "v"), rows(24, 5, 7))
    val f = b.filter(r, "v", CmpOp.Gt, Right(6.0))
    val byKey = b.sort(rel(b, Seq("k", "v"), rows(20, 4, 3)), Seq("k" -> true))
    val outs = Seq.newBuilder[SharedRelation]
    for (fn <- Seq(AggFn.Sum, AggFn.Count, AggFn.Min, AggFn.Max)) {
      val col = if (fn == AggFn.Count) None else Some("v")
      outs += b.aggregate("agg", f, Seq("k"), Seq(AggSpec(fn, col, "out")))
      outs += b.aggregate("agg", f, Seq("k"), Seq(AggSpec(fn, col, "out")), preSorted = true)
      outs += b.aggregate("agg", byKey, Seq("k"), Seq(AggSpec(fn, col, "out")), preSorted = true)
      outs += b.globalAggregate(f, Seq(AggSpec(fn, col, "out")))
      outs += b.hybridAggregate("ha", f, Seq("k"), Seq(AggSpec(fn, col, "out")), stp = pA)
    }
    outs += b.distinct(b.project(f, Seq("k")), preSorted = false)
    outs += b.distinct(b.project(byKey, Seq("k")), preSorted = true)
    for (cmp <- Seq(CmpOp.Eq, CmpOp.Neq, CmpOp.Lt, CmpOp.Leq, CmpOp.Gt, CmpOp.Geq)) {
      outs += b.filter(f, "v", cmp, Right(13.0))
      outs += b.filter(r, "v", cmp, Left("k"))
    }
    outs += b.limit("lim", b.sort(f, Seq("v" -> false)), 5, sorted = true)
    outs += b.limit("lim", f, 5, sorted = false)
    outs += b.compact("cmp", f)
    outs.result().foreach(o => (o.cols ++ o.validity).foreach(d.add))
    b.leakage.events.foreach(e => d.addAll(e.toString.map(_.toLong).toArray))
  }

  private def line(name: String, meter: CostMeter)(body: Digest => Unit): String = {
    val d = new Digest
    body(d)
    s"$name shares=${d.hex} cost=${meter.snapshot}"
  }

  test("both engines reproduce their pinned shares and counters") {
    val got = Seq(("ss", () => ss()), ("gc", () => gc())).flatMap { case (tag, fresh) =>
      val backend = if (tag == "ss") sharemind(seed = 11L) else oblivc()
      Seq(
        { val e = fresh(); line(s"$tag ops", e.meter)(ops(e, _)) },
        { val e = fresh(); line(s"$tag sort", e.meter)(sort(e, _)) },
        { val e = fresh(); line(s"$tag join", e.meter)(join(e, _)) },
        line(s"$tag protocols", backend.meter)(protocols(backend, _)),
        { val b = if (tag == "ss") sharemind(seed = 13L) else oblivc()
          line(s"$tag relational operators", b.meter)(operators(b, _)) })
    }
    assert(got == Pinned, s"got:\n${got.mkString("\n")}")
  }
}

object SharePinSpec {
  /** SHA-256 over share arrays, each prefixed by its length; `hex` gives the
    * first 8 bytes.
    */
  private final class Digest {
    private val md = MessageDigest.getInstance("SHA-256")
    def add(c: SharedCol): Unit = addAll(c.parts.toSeq: _*)
    def addAll(arrays: Array[Long]*): Unit = arrays.foreach { xs =>
      val buf = ByteBuffer.allocate(8 * (xs.length + 1))
      buf.putLong(xs.length.toLong)
      xs.foreach(buf.putLong)
      md.update(buf.array())
    }
    def hex: String = md.digest().take(8).map("%02x".format(_)).mkString
  }

  private val Pinned: Seq[String] = Seq(
    "ss ops shares=e9b411bc174041af cost=CostSnapshot(0,26,52,138,1,0,0,0,0,0.01724)",
    "ss sort shares=f0709a830c26016a cost=CostSnapshot(3000,100602,201204,704214,0,0,0,0,0,63.778056)",
    "ss join shares=7f4a7d0809adcd76 cost=CostSnapshot(696,18000,0,18000,7,11610,0,0,0,0.52708)",
    "ss protocols shares=17d4ad85c12591f7 cost=CostSnapshot(1024,0,143,3438,41,7154,0,0,0,0.352808)",
    "ss relational operators shares=c001f513383a7549 cost=CostSnapshot(1026,398,1851,8330,105,7830,0,0,0,0.9503719999999999)",
    "gc ops shares=48fe2bf634109a9d cost=CostSnapshot(0,0,0,0,1,0,384064,0,0,0.38406399999999996)",
    "gc sort shares=d538da3f5119a486 cost=CostSnapshot(3000,0,0,0,0,0,167401728,0,0,167.551728)",
    "gc join shares=0b9b96f43aec0463 cost=CostSnapshot(696,0,0,0,1,0,3047040,0,0,3.08184)",
    "gc protocols shares=b6011197423bea8a cost=CostSnapshot(1024,0,0,0,23,0,706816,0,532480,0.758016)",
    "gc relational operators shares=2042e2ac746d9671 cost=CostSnapshot(1026,0,0,0,27,0,2696896,0,786432,2.7481959999999996)")
}
