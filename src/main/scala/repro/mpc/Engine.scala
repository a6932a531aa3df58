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

/** Column-level oblivious arithmetic, defined once for every backend.
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
  * The operations are written here once, over what an engine supplies:
  *   - its column class (`alloc`, and `own`, which rejects a foreign one);
  *   - its sharing scheme (`share` and `peek`);
  *   - its multiplication protocol (`mul`);
  *   - its price list (`charge`, one entry per [[MpcEngine.Op]]).
  *
  * Shares are additive (a garbled-circuit column is one share holding the
  * value), so `add`, `sub`, `addPub`, `mulPub` and `not` are one local
  * affine map. `eq`, `lt` and `divFx` run as ideal functionalities: the
  * trusted runtime reconstructs the operands, applies the function and
  * shares the result, and the engine charges its protocol's price. Every
  * operation charges the engine's [[CostMeter]] as it executes, so the
  * meter reflects the operations a real backend would perform.
  */
trait MpcEngine {
  import MpcEngine.Op

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

  // ------------------------------------------------- what an engine supplies

  /** The engine's column class. */
  protected type Col <: SharedCol

  /** A fresh column of `n` zeros. */
  def alloc(n: Int): SharedCol

  /** `c` as the engine's column class; a foreign column is rejected. */
  protected def own(c: SharedCol): Col

  /** The rejection of a column from another engine, for `own`. */
  protected final def foreign(c: SharedCol): Nothing =
    throw new IllegalArgumentException(s"$name got foreign column $c")

  /** Write a fresh sharing of `x` at `o(i)`. */
  protected def share(x: Long, o: Col, i: Int): Unit

  /** Reconstruct `s(i)` without charging a round: ideal-functionality use. */
  protected def peek(s: Col, i: Int): Long

  /** `o(oi) = x(xi) * y(yi)` by the engine's multiplication protocol, on raw
    * ring elements, uncharged.
    */
  protected def mul(x: Col, xi: Int, y: Col, yi: Int, o: Col, oi: Int): Unit

  /** Charge `n` executions of `op`. */
  protected def charge(op: Op, n: Long): Unit

  // ---------------------------------------------------------------- sharing

  /** Secret-share / feed cleartext ring elements into the MPC. */
  final def input(xs: Array[Long]): SharedCol = {
    val o = own(alloc(xs.length))
    var i = 0
    while (i < xs.length) { share(xs(i), o, i); i += 1 }
    o
  }

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
  final def idealOpen(c: SharedCol): Array[Long] = {
    val s = own(c)
    val out = new Array[Long](s.length)
    var i = 0
    while (i < out.length) { out(i) = peek(s, i); i += 1 }
    out
  }

  /** Reconstruct columns in a single communication round (the
    * protocol-level "reveal").
    */
  final def open(cols: Seq[SharedCol]): Seq[Array[Long]] = {
    meter.addRound(1)
    cols.map(idealOpen)
  }

  final def open(c: SharedCol): Array[Long] = open(Seq(c)).head

  // ------------------------------------------ elementwise, `into` form

  /** `out = ca·a + cb·b + c0` on each share array, `c0` added to the first
    * only: every local operation of an additive sharing.
    */
  private def affine(op: Op, a: SharedCol, ca: Long, b: SharedCol, cb: Long, c0: Long, out: SharedCol,
      n: Int, ai: Int, bi: Int, oi: Int): Unit = {
    charge(op, n)
    val x = own(a).parts; val y = own(b).parts; val o = own(out).parts
    var k = 0
    while (k < o.length) {
      val xk = x(k); val yk = y(k); val ok = o(k)
      val c = if (k == 0) c0 else 0L
      var t = 0
      while (t < n) { ok(oi + t) = ca * xk(ai + t) + cb * yk(bi + t) + c; t += 1 }
      k += 1
    }
  }

  final def add(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit =
    affine(Op.Add, a, 1L, b, 1L, 0L, out, n, ai, bi, oi)
  final def sub(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit =
    affine(Op.Sub, a, 1L, b, -1L, 0L, out, n, ai, bi, oi)
  final def addPub(a: SharedCol, k: Long, out: SharedCol, n: Int, ai: Int = 0, oi: Int = 0): Unit =
    affine(Op.AddPub, a, 1L, a, 0L, k, out, n, ai, ai, oi)
  final def mulPub(a: SharedCol, k: Long, out: SharedCol, n: Int, ai: Int = 0, oi: Int = 0): Unit =
    affine(Op.MulPub, a, k, a, 0L, 0L, out, n, ai, ai, oi)

  /** Logical NOT of 0/1 flags: 1 - a. */
  final def not(a: SharedCol, out: SharedCol, n: Int, ai: Int = 0, oi: Int = 0): Unit =
    affine(Op.Not, a, -1L, a, 0L, 1L, out, n, ai, ai, oi)

  /** The engine's multiplication, elementwise; `MulFx` reshares each
    * product truncated by the fixed-point scale (the truncation protocol as
    * an ideal functionality).
    */
  private def product(op: Op, a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int,
      oi: Int): Unit = {
    charge(op, n)
    // Tested once: `==` on `op` is a virtual `equals` on whichever case
    // object came in, which the JIT cannot inline inside the loop.
    val truncate = op == Op.MulFx
    val x = own(a); val y = own(b); val o = own(out)
    var t = 0
    while (t < n) {
      mul(x, ai + t, y, bi + t, o, oi + t)
      if (truncate) share(Fixed.rescale(peek(o, oi + t)), o, oi + t)
      t += 1
    }
  }

  /** Secure multiplication of raw ring elements (no rescale). */
  final def mulRaw(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit =
    product(Op.MulRaw, a, b, out, n, ai, bi, oi)

  /** Fixed-point multiply: mulRaw followed by an oblivious truncation. */
  final def mulFx(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit =
    product(Op.MulFx, a, b, out, n, ai, bi, oi)

  /** flag * v, where flag is 0/1 raw — no rescale. Also the AND of two flags. */
  final def mulFlag(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit =
    product(Op.MulFlag, a, b, out, n, ai, bi, oi)

  /** `out = f(a, b)` by an ideal functionality: reconstruct both operands,
    * apply `op`'s function, share the result.
    */
  private def ideal(op: Op, a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int, bi: Int,
      oi: Int): Unit = {
    charge(op, n)
    val x = own(a); val y = own(b); val o = own(out)
    var t = 0
    while (t < n) {
      val u = peek(x, ai + t); val v = peek(y, bi + t)
      val r = op match {
        case Op.Eq => if (u == v) 1L else 0L
        case Op.Lt => if (u < v) 1L else 0L
        case _ =>
          val den = Fixed.decode(v)
          require(den != 0.0, "MPC division by zero")
          Fixed.encode(Fixed.decode(u) / den)
      }
      share(r, o, oi + t)
      t += 1
    }
  }

  /** Fixed-point division (both operands fixed-point encoded). */
  final def divFx(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit =
    ideal(Op.DivFx, a, b, out, n, ai, bi, oi)

  /** Oblivious equality on data values; 0/1 flags. */
  final def eq(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit =
    ideal(Op.Eq, a, b, out, n, ai, bi, oi)

  /** Oblivious less-than on data values; 0/1 flags. */
  final def lt(a: SharedCol, b: SharedCol, out: SharedCol, n: Int, ai: Int = 0, bi: Int = 0, oi: Int = 0): Unit =
    ideal(Op.Lt, a, b, out, n, ai, bi, oi)

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

  /** Charge `n` executions of `op` at the engine's price, for a protocol
    * simulated by its ideal functionality.
    */
  final def chargeIdeal(op: Op, n: Long): Unit = charge(op, n)

  /** Memory-model hook for relation-level operators (GC backends OOM). */
  def checkRelationMem(op: String, records: Long, width: Long): Unit = ()
}

object MpcEngine {
  /** The elementwise operations, as the engines' price lists name them. */
  sealed trait Op
  object Op {
    case object Add extends Op
    case object Sub extends Op
    case object AddPub extends Op
    case object MulPub extends Op
    case object Not extends Op
    case object MulRaw extends Op
    case object MulFx extends Op
    case object DivFx extends Op
    case object Eq extends Op
    case object Lt extends Op
    case object MulFlag extends Op
  }
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
  import MpcEngine.Op

  val name = "secret-sharing"
  protected val rng = new SplittableRandom(seed)
  protected type Col = ShareCol

  override def fork(): MpcEngine = new SecretSharingEngine(rng.nextLong(), new CostMeter(meter.params))

  override def alloc(n: Int): SharedCol = new ShareCol(new Array(n), new Array(n), new Array(n))

  protected def own(c: SharedCol): ShareCol = c match {
    case s: ShareCol => s
    case other       => foreign(other)
  }

  /** Three additive shares: r1, then r2, and x - r1 - r2. */
  protected def share(x: Long, o: ShareCol, i: Int): Unit = {
    val r1 = rng.nextLong(); val r2 = rng.nextLong()
    o.s1(i) = r1; o.s2(i) = r2; o.s3(i) = x - r1 - r2
  }

  protected def peek(s: ShareCol, i: Int): Long = s.s1(i) + s.s2(i) + s.s3(i)

  /** One Beaver multiplication: with a dealer triple (p, q, pq), open
    * d = x - p and e = y - q, then xy = pq + d*q + e*p + d*e (d, e public).
    */
  protected def mul(x: ShareCol, xi: Int, y: ShareCol, yi: Int, o: ShareCol, oi: Int): Unit = {
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

  /** Linear operations are local and free. One triple per multiplication,
    * and no round: Sharemind-class backends batch all multiplications of a
    * vectorized operation into one round, so the per-triple communication
    * is amortized into the `mul` constant. The truncation after a
    * fixed-point product is charged as one more multiplication, and
    * Sharemind's fixed-point division (Goldschmidt iteration) as a
    * comparison-class operation.
    */
  protected def charge(op: Op, n: Long): Unit = op match {
    case Op.MulRaw | Op.MulFlag => meter.addMul(n)
    case Op.MulFx               => meter.addMul(2L * n)
    case Op.Eq                  => meter.addEq(n)
    case Op.Lt | Op.DivFx       => meter.addCmp(n)
    case Op.Add | Op.Sub | Op.AddPub | Op.MulPub | Op.Not => ()
  }

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
  import GarbledCircuitEngine.GcGates.{Add => AddGates, Cmp => CmpGates, Mul => MulGates, Mux => MuxGates}
  import MpcEngine.Op

  val name = s"garbled-${meter.params.name}"
  protected val rng = new SplittableRandom(0x6C1L)
  protected type Col = WireCol

  override def fork(): MpcEngine = new GarbledCircuitEngine(new CostMeter(meter.params))

  override def alloc(n: Int): SharedCol = new WireCol(new Array(n))

  protected def own(c: SharedCol): WireCol = c match {
    case w: WireCol => w
    case other      => foreign(other)
  }

  protected def share(x: Long, o: WireCol, i: Int): Unit = o.v(i) = x
  protected def peek(s: WireCol, i: Int): Long = s.v(i)
  protected def mul(x: WireCol, xi: Int, y: WireCol, yi: Int, o: WireCol, oi: Int): Unit =
    o.v(oi) = x.v(xi) * y.v(yi)

  protected def charge(op: Op, n: Long): Unit = meter.addGates(n * (op match {
    case Op.Add | Op.Sub | Op.AddPub | Op.Not   => AddGates
    case Op.MulPub | Op.MulRaw | Op.MulFx       => MulGates
    case Op.DivFx                               => MulGates * 4 // long division circuit
    case Op.Eq | Op.Lt                          => CmpGates
    case Op.MulFlag                             => MuxGates
  }))

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
