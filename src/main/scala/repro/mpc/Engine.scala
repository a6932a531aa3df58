package repro.mpc

import java.util.SplittableRandom

/** One column of values protected by an MPC engine, stored as primitive
  * arrays: one array per share component, all of the same length. Engines
  * accept only their own column class and reject a foreign one, so a shared
  * relation can never silently migrate between backends.
  *
  * The methods here move whole rows at public positions (permute, select,
  * pad, append). That is local data movement in every protocol, so nothing
  * is charged.
  */
sealed abstract class SharedCol(private[mpc] val parts: Array[Array[Long]]) {
  protected def make(parts: Array[Array[Long]]): SharedCol

  final def length: Int = parts(0).length

  /** The rows at positions `idx`, in that order. */
  final def gather(idx: Array[Int]): SharedCol = {
    val out = make(parts.map(_ => new Array[Long](idx.length)))
    gatherInto(idx, out, 0, idx.length)
    out
  }

  /** `dst(t) = this(idx(t))` for every t in `[from, until)`. */
  final def gatherInto(idx: Array[Int], dst: SharedCol, from: Int, until: Int): Unit = {
    var k = 0
    while (k < parts.length) {
      val src = parts(k); val d = dst.parts(k)
      var t = from
      while (t < until) { d(t) = src(idx(t)); t += 1 }
      k += 1
    }
  }

  /** `this(idx(t)) = src(t)` for every t in `[from, until)`. */
  final def scatterFrom(src: SharedCol, idx: Array[Int], from: Int, until: Int): Unit = {
    var k = 0
    while (k < parts.length) {
      val s = src.parts(k); val d = parts(k)
      var t = from
      while (t < until) { d(idx(t)) = s(t); t += 1 }
      k += 1
    }
  }

  /** A copy of rows `from until until`. */
  final def slice(from: Int, until: Int): SharedCol =
    make(parts.map(java.util.Arrays.copyOfRange(_, from, until)))
}

object SharedCol {
  /** The rows of `cols`, one after another. */
  def concat(cols: Seq[SharedCol]): SharedCol = {
    require(cols.nonEmpty, "concat of no columns")
    val head = cols.head
    require(cols.forall(_.getClass == head.getClass), "concat of columns from different engines")
    head.make(Array.tabulate(head.parts.length)(k => Array.concat(cols.map(_.parts(k)): _*)))
  }
}

/** 3-party additive secret shares over Z_2^64: x = s1 + s2 + s3 (mod 2^64).
  * Each simulated party holds exactly one of the arrays.
  */
final class ShareCol(val s1: Array[Long], val s2: Array[Long], val s3: Array[Long])
    extends SharedCol(Array(s1, s2, s3)) {
  protected def make(parts: Array[Array[Long]]): SharedCol = new ShareCol(parts(0), parts(1), parts(2))
}

/** Garbled-circuit wire bundles. The simulation tracks the cleartext values
  * (the evaluator would hold wire labels encoding them) and charges gates.
  */
final class WireCol(val v: Array[Long]) extends SharedCol(Array(v)) {
  protected def make(parts: Array[Array[Long]]): SharedCol = new WireCol(parts(0))
}

/** Ceil(log2 n), and 1 for n <= 1: the depth factor of shuffles and of
  * oblivious indexing.
  */
private[mpc] object Log2 {
  def ceil(n: Long): Long = if (n <= 1) 1L else 64L - java.lang.Long.numberOfLeadingZeros(n - 1)
}

/** Column-level oblivious arithmetic, implemented by each backend.
  *
  * Two value classes flow through an engine:
  *   - *data values*: fixed-point encoded (see [[Fixed]]);
  *   - *flags*: raw 0/1, produced by `eq`/`lt` and consumed by `mux`,
  *     `mulFlag` and `not`.
  *
  * Every operation is elementwise over a batch: the `into` form computes
  * `out(oi + t) = a(ai + t) op b(bi + t)` for `t < n`, so a kernel can run a
  * whole column in one call and a sequential scan one element at a time
  * over the same arrays, both through the same code. Reading happens before
  * writing within each element, so `out` may be an input at the same
  * offset. The allocating form runs the whole column into a fresh one.
  *
  * All operations charge the engine's [[CostMeter]] per element as they
  * execute, so the meter reflects the operations a real backend would
  * perform.
  */
trait MpcEngine {
  def name: String
  def meter: CostMeter

  /** The trusted runtime's randomness (triple dealer, shares, shuffles). */
  protected def rng: SplittableRandom

  /** An engine of the same class with a fresh meter of the same params and,
    * where the engine draws randomness, its own dealer stream seeded from
    * this one. A blocked kernel runs each block on its own fork, so blocks
    * can run on several threads, and absorbs the forks' meters afterwards.
    */
  def fork(): MpcEngine

  /** A fresh column of `n` zeros. */
  def alloc(n: Int): SharedCol

  /** Secret-share / feed cleartext ring elements into the MPC. */
  def input(xs: Array[Long]): SharedCol

  /** A public constant, shared like an input. */
  final def constant(x: Long, n: Int): SharedCol = {
    val xs = new Array[Long](n)
    java.util.Arrays.fill(xs, x)
    input(xs)
  }

  /** Internal reconstruction used where a sub-protocol is simulated by its
    * ideal functionality (truncation, comparison, oblivious indexing). No
    * round is charged and nothing is revealed to any party — the caller is
    * responsible for charging the simulated protocol's cost.
    */
  def idealOpen(c: SharedCol): Array[Long]

  /** Reconstruct columns in a single communication round (the
    * protocol-level "reveal").
    */
  final def open(cols: Seq[SharedCol]): Seq[Array[Long]] = {
    meter.addRound(1)
    cols.map(idealOpen)
  }

  final def open(c: SharedCol): Array[Long] = open(Seq(c)).head

  // ------------------------------------------ elementwise, `into` form

  def add(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit
  def sub(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit
  def addPub(a: SharedCol, k: Long, out: SharedCol, n: Int, ai: Int = 0, oi: Int = 0): Unit
  def mulPub(a: SharedCol, k: Long, out: SharedCol, n: Int, ai: Int = 0, oi: Int = 0): Unit

  /** Logical NOT of 0/1 flags: 1 - a. */
  def not(a: SharedCol, out: SharedCol, n: Int, ai: Int = 0, oi: Int = 0): Unit

  /** Secure multiplication of raw ring elements (no rescale). */
  def mulRaw(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit

  /** Fixed-point multiply: mulRaw followed by an oblivious truncation. */
  def mulFx(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit

  /** Fixed-point division (both operands fixed-point encoded). */
  def divFx(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit

  /** Oblivious equality on data values; 0/1 flags. */
  def eq(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit

  /** Oblivious less-than on data values; 0/1 flags. */
  def lt(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit

  /** flag * v, where flag is 0/1 raw — no rescale. Also the AND of two flags. */
  def mulFlag(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit

  /** c ? a : b for a 0/1 flag c: b + c*(a-b), run and charged as that
    * subtraction, flag multiply and addition. The difference goes to
    * scratch, so `out` may be any input at its own offset.
    */
  final def mux(c: SharedCol, a: SharedCol, b: SharedCol, out: SharedCol, n: Int,
      ci: Int = 0, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit = {
    val d = alloc(n)
    sub(a, b, d, n, ai, bi)
    mulFlag(c, d, d, n, ci)
    add(b, d, out, n, bi, 0, oi)
  }

  // --------------------------------------- elementwise, whole columns

  /** Run `op` over whole columns of equal length into a fresh column. */
  private def fresh(cols: SharedCol*)(op: (SharedCol, Int) => Unit): SharedCol = {
    val n = cols.head.length
    require(cols.forall(_.length == n), s"column lengths differ: ${cols.map(_.length)}")
    val out = alloc(n); op(out, n); out
  }

  final def add(a: SharedCol, b: SharedCol): SharedCol = fresh(a, b)(add(a, b, _, _))
  final def sub(a: SharedCol, b: SharedCol): SharedCol = fresh(a, b)(sub(a, b, _, _))
  final def addPub(a: SharedCol, k: Long): SharedCol = fresh(a)(addPub(a, k, _, _))
  final def mulPub(a: SharedCol, k: Long): SharedCol = fresh(a)(mulPub(a, k, _, _))
  final def not(a: SharedCol): SharedCol = fresh(a)(not(a, _, _))
  final def mulRaw(a: SharedCol, b: SharedCol): SharedCol = fresh(a, b)(mulRaw(a, b, _, _))
  final def mulFx(a: SharedCol, b: SharedCol): SharedCol = fresh(a, b)(mulFx(a, b, _, _))
  final def divFx(a: SharedCol, b: SharedCol): SharedCol = fresh(a, b)(divFx(a, b, _, _))
  final def eq(a: SharedCol, b: SharedCol): SharedCol = fresh(a, b)(eq(a, b, _, _))
  final def lt(a: SharedCol, b: SharedCol): SharedCol = fresh(a, b)(lt(a, b, _, _))
  final def mulFlag(a: SharedCol, b: SharedCol): SharedCol = fresh(a, b)(mulFlag(a, b, _, _))
  final def mux(c: SharedCol, a: SharedCol, b: SharedCol): SharedCol = fresh(c, a, b)(mux(c, a, b, _, _))

  /** AND of two 0/1 flag columns. */
  final def and(a: SharedCol, b: SharedCol): SharedCol = mulFlag(a, b)

  // ------------------------------------------------------------ protocol

  /** A secret permutation of {0..n-1} drawn inside the protocol (the
    * composition of per-party permutations in a resharing-based shuffle);
    * the simulation's trusted runtime draws it directly (Fisher–Yates).
    */
  final def secretPermutation(n: Int): Array[Int] = {
    val a = Array.range(0, n)
    var i = n - 1
    while (i > 0) { val j = rng.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
    a
  }

  /** Charge the cost of obliviously shuffling `rows` rows of `cols` columns. */
  def chargeShuffle(rows: Long, cols: Long): Unit

  /** Charge per-row storage-layer cost. */
  final def chargeRows(rows: Long): Unit = meter.addRows(rows)

  /** Memory-model hook for relation-level operators (GC backends OOM). */
  def checkRelationMem(op: String, records: Long, width: Long): Unit = ()
}

/** Additive 3-party secret sharing with Beaver-triple multiplication — the
  * "Sharemind-like" backend.
  *
  * Linear operations are local (free); multiplications genuinely run the
  * Beaver protocol against a simulated trusted triple dealer and charge one
  * triple. Comparisons and equality are computed by an ideal functionality
  * inside the trusted runtime and charged the cost of Sharemind's bit-level
  * protocols (see DESIGN.md — substituting the bit decomposition changes
  * nothing observable: same results, same leakage, same cost shape).
  *
  * The dealer draws from a seeded, non-synchronised `SplittableRandom`
  * (DESIGN.md, "Substitutions").
  */
final class SecretSharingEngine(seed: Long, val meter: CostMeter) extends MpcEngine {
  val name = "secret-sharing"
  protected val rng = new SplittableRandom(seed)

  override def fork(): MpcEngine = new SecretSharingEngine(rng.nextLong(), new CostMeter(meter.params))

  private def own(c: SharedCol): ShareCol = c match {
    case s: ShareCol => s
    case other       => throw new IllegalArgumentException(s"$name got foreign column $other")
  }

  /** Write a fresh random sharing of `x` at `o(i)`. */
  private def share(x: Long, o: ShareCol, i: Int): Unit = {
    val r1 = rng.nextLong(); val r2 = rng.nextLong()
    o.s1(i) = r1; o.s2(i) = r2; o.s3(i) = x - r1 - r2
  }

  /** Reconstruct without charging a round — internal ideal-functionality use. */
  private def peek(s: ShareCol, i: Int): Long = s.s1(i) + s.s2(i) + s.s3(i)

  override def alloc(n: Int): SharedCol = new ShareCol(new Array(n), new Array(n), new Array(n))

  override def input(xs: Array[Long]): SharedCol = {
    val o = own(alloc(xs.length))
    var i = 0
    while (i < xs.length) { share(xs(i), o, i); i += 1 }
    o
  }

  override def idealOpen(c: SharedCol): Array[Long] = {
    val s = own(c)
    val out = new Array[Long](s.length)
    var i = 0
    while (i < out.length) { out(i) = peek(s, i); i += 1 }
    out
  }

  override def add(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit = {
    val x = own(a); val y = own(b); val o = own(out)
    var t = 0
    while (t < n) {
      o.s1(oi + t) = x.s1(ai + t) + y.s1(bi + t)
      o.s2(oi + t) = x.s2(ai + t) + y.s2(bi + t)
      o.s3(oi + t) = x.s3(ai + t) + y.s3(bi + t)
      t += 1
    }
  }

  override def sub(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit = {
    val x = own(a); val y = own(b); val o = own(out)
    var t = 0
    while (t < n) {
      o.s1(oi + t) = x.s1(ai + t) - y.s1(bi + t)
      o.s2(oi + t) = x.s2(ai + t) - y.s2(bi + t)
      o.s3(oi + t) = x.s3(ai + t) - y.s3(bi + t)
      t += 1
    }
  }

  override def addPub(a: SharedCol, k: Long, out: SharedCol, n: Int, ai: Int, oi: Int): Unit = {
    val x = own(a); val o = own(out)
    var t = 0
    while (t < n) {
      o.s1(oi + t) = x.s1(ai + t) + k; o.s2(oi + t) = x.s2(ai + t); o.s3(oi + t) = x.s3(ai + t)
      t += 1
    }
  }

  override def mulPub(a: SharedCol, k: Long, out: SharedCol, n: Int, ai: Int, oi: Int): Unit = {
    val x = own(a); val o = own(out)
    var t = 0
    while (t < n) {
      o.s1(oi + t) = x.s1(ai + t) * k; o.s2(oi + t) = x.s2(ai + t) * k; o.s3(oi + t) = x.s3(ai + t) * k
      t += 1
    }
  }

  override def not(a: SharedCol, out: SharedCol, n: Int, ai: Int, oi: Int): Unit = {
    val x = own(a); val o = own(out)
    var t = 0
    while (t < n) {
      o.s1(oi + t) = 1L - x.s1(ai + t); o.s2(oi + t) = -x.s2(ai + t); o.s3(oi + t) = -x.s3(ai + t)
      t += 1
    }
  }

  /** One Beaver multiplication, `o(oi) = x * y` for x, y given by their
    * shares: with a dealer triple (p, q, pq), open d = x - p and e = y - q,
    * then xy = pq + d*q + e*p + d*e (d, e public).
    */
  private def beaver(x: ShareCol, xi: Int, y: ShareCol, yi: Int, o: ShareCol, oi: Int): Unit = {
    val p = rng.nextLong(); val q = rng.nextLong()
    val p1 = rng.nextLong(); val p2 = rng.nextLong(); val p3 = p - p1 - p2
    val q1 = rng.nextLong(); val q2 = rng.nextLong(); val q3 = q - q1 - q2
    val r1 = rng.nextLong(); val r2 = rng.nextLong(); val r3 = p * q - r1 - r2
    val d = (x.s1(xi) - p1) + (x.s2(xi) - p2) + (x.s3(xi) - p3) // opened to all parties
    val e = (y.s1(yi) - q1) + (y.s2(yi) - q2) + (y.s3(yi) - q3)
    o.s1(oi) = r1 + d * q1 + e * p1 + d * e
    o.s2(oi) = r2 + d * q2 + e * p2
    o.s3(oi) = r3 + d * q3 + e * p3
  }

  /** No round is charged per multiplication: Sharemind-class backends batch
    * all multiplications of a vectorized operation into one round, so the
    * per-triple communication is amortized into the `mul` constant.
    */
  override def mulRaw(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit = {
    val x = own(a); val y = own(b); val o = own(out)
    var t = 0
    while (t < n) { beaver(x, ai + t, y, bi + t, o, oi + t); t += 1 }
    meter.addMul(n)
  }

  override def mulFx(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit = {
    // Oblivious truncation after the raw product; the truncation protocol is
    // an ideal functionality charged as one extra multiplication.
    val x = own(a); val y = own(b); val o = own(out)
    var t = 0
    while (t < n) {
      beaver(x, ai + t, y, bi + t, o, oi + t)
      share(Fixed.rescale(peek(o, oi + t)), o, oi + t)
      t += 1
    }
    meter.addMul(2L * n)
  }

  override def divFx(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit = {
    // Sharemind's fixed-point division (Goldschmidt iteration) — ideal
    // functionality charged as a comparison-class operation.
    val x = own(a); val y = own(b); val o = own(out)
    meter.addCmp(n)
    var t = 0
    while (t < n) {
      val den = Fixed.decode(peek(y, bi + t))
      require(den != 0.0, "MPC division by zero")
      share(Fixed.encode(Fixed.decode(peek(x, ai + t)) / den), o, oi + t)
      t += 1
    }
  }

  override def eq(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit = {
    val x = own(a); val y = own(b); val o = own(out)
    meter.addEq(n)
    var t = 0
    while (t < n) { share(if (peek(x, ai + t) == peek(y, bi + t)) 1L else 0L, o, oi + t); t += 1 }
  }

  override def lt(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit = {
    val x = own(a); val y = own(b); val o = own(out)
    meter.addCmp(n)
    var t = 0
    while (t < n) { share(if (peek(x, ai + t) < peek(y, bi + t)) 1L else 0L, o, oi + t); t += 1 }
  }

  override def mulFlag(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit =
    mulRaw(a, b, out, n, ai, bi, oi)

  override def chargeShuffle(rows: Long, cols: Long): Unit = {
    meter.addShuffle(rows * Log2.ceil(rows) * cols)
    meter.addRound(3)
  }
}

/** Garbled-circuit engine ("Obliv-C" / "ObliVM" depending on CostParams).
  *
  * Computes the same functionality (the garbler+evaluator jointly hold the
  * cleartext across their wire labels) while charging per-gate time and
  * tracking circuit state against a memory ceiling, reproducing Obliv-C's
  * observed OOM behaviour on the paper's 4 GB VMs.
  */
final class GarbledCircuitEngine(val meter: CostMeter) extends MpcEngine {
  val name = s"garbled-${meter.params.name}"
  protected val rng = new SplittableRandom(0x6C1L)

  override def fork(): MpcEngine = new GarbledCircuitEngine(new CostMeter(meter.params))

  import GarbledCircuitEngine.GcGates.{Add => AddGates, Cmp => CmpGates, Mul => MulGates, Mux => MuxGates}

  private def own(c: SharedCol): WireCol = c match {
    case w: WireCol => w
    case other      => throw new IllegalArgumentException(s"$name got foreign column $other")
  }

  /** `out(oi + t) = f(a(ai + t), b(bi + t))`, charging `gates` per element. */
  @inline private def zip(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int,
      oi: Int, gates: Long)(f: (Long, Long) => Long): Unit = {
    meter.addGates(gates * n)
    val x = own(a).v; val y = own(b).v; val o = own(out).v
    var t = 0
    while (t < n) { o(oi + t) = f(x(ai + t), y(bi + t)); t += 1 }
  }

  override def alloc(n: Int): SharedCol = new WireCol(new Array(n))
  override def input(xs: Array[Long]): SharedCol = new WireCol(xs.clone())
  override def idealOpen(c: SharedCol): Array[Long] = own(c).v.clone()

  override def add(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit =
    zip(a, b, out, n, ai, bi, oi, AddGates)(_ + _)
  override def sub(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit =
    zip(a, b, out, n, ai, bi, oi, AddGates)(_ - _)
  override def addPub(a: SharedCol, k: Long, out: SharedCol, n: Int, ai: Int, oi: Int): Unit =
    zip(a, a, out, n, ai, ai, oi, AddGates)((x, _) => x + k)
  override def mulPub(a: SharedCol, k: Long, out: SharedCol, n: Int, ai: Int, oi: Int): Unit =
    zip(a, a, out, n, ai, ai, oi, MulGates)((x, _) => x * k)
  override def not(a: SharedCol, out: SharedCol, n: Int, ai: Int, oi: Int): Unit =
    zip(a, a, out, n, ai, ai, oi, AddGates)((x, _) => 1L - x)
  override def mulRaw(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit =
    zip(a, b, out, n, ai, bi, oi, MulGates)(_ * _)
  override def mulFx(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit =
    zip(a, b, out, n, ai, bi, oi, MulGates)((x, y) => Fixed.rescale(x * y))
  override def divFx(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit =
    zip(a, b, out, n, ai, bi, oi, MulGates * 4) { (x, y) => // long division circuit
      val den = Fixed.decode(y)
      require(den != 0.0, "MPC division by zero")
      Fixed.encode(Fixed.decode(x) / den)
    }
  override def eq(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit =
    zip(a, b, out, n, ai, bi, oi, CmpGates)((x, y) => if (x == y) 1L else 0L)
  override def lt(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit =
    zip(a, b, out, n, ai, bi, oi, CmpGates)((x, y) => if (x < y) 1L else 0L)
  override def mulFlag(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int, oi: Int): Unit =
    zip(a, b, out, n, ai, bi, oi, MuxGates)(_ * _)

  override def chargeShuffle(rows: Long, cols: Long): Unit =
    // Waksman permutation network: ~ n log n muxes per column.
    meter.addGates(rows * Log2.ceil(rows) * cols * MuxGates)

  /** Circuit-width factors calibrated to the paper's OOM anchors: with
    * 16-byte labels, a join OOMs at ~30k input records and a projection at
    * ~300k on a 4 GB ceiling (Fig. 1b/1c).
    */
  override def checkRelationMem(op: String, records: Long, width: Long): Unit =
    meter.checkMem(op, records * width * meter.params.labelBytes)
}

object GarbledCircuitEngine {
  /** Garbled gates per 64-bit word operation (free-XOR model: only AND gates
    * are garbled).
    */
  private object GcGates {
    val Add = 64L
    val Mul = 64L * 63 / 2
    val Cmp = 64L
    val Mux = 64L
  }
}

object GcOpWidth {
  /** Live wire-label words per record for a projection-class circuit. */
  val Projection = 832L
  /** Per record for a join circuit (holds both relations + candidates). */
  val Join = 8192L
  /** Per record for a sort-based aggregation circuit. */
  val Aggregation = 2048L
}
