package repro.mpc

/** Per-backend cost constants, in seconds per primitive operation.
  *
  * The substrate *executes* every oblivious protocol (so operation counts —
  * and hence asymptotic shape — are real), and converts the executed counts
  * to modeled wall-clock seconds via these constants. The constants are
  * calibrated against the anchor points the paper reports; each anchor is
  * noted below. Absolute times are therefore approximations of the authors'
  * 2018 testbed, but crossovers and slopes follow from real op counts.
  */
final case class CostParams(
    name: String,
    /** Storage/VM-layer cost per shared row touched by an operator.
      * Anchor: Sharemind projection over 3M rows takes >10 min (Fig. 1c)
      * → ~2e-4 s/row.
      */
    rowTouch: Double,
    /** Oblivious 64-bit equality test.
      * Anchor: Sharemind join at 10k x 10k rows (1e8 equality tests) takes
      * "over twenty minutes" (Fig. 5 caption) → ~1.4e-5 s each.
      */
    eq: Double,
    /** Oblivious 64-bit comparison (less-than), incl. its use inside a
      * sorting-network compare-exchange.
      * Anchor: Sharemind aggregation of 30k rows (bitonic sort ≈ 1.8M
      * compare-exchanges) takes ~10 min (Fig. 5 caption) → ~3e-4 s each.
      * The constant was fitted to those 1.8M bitonic compare-exchanges and
      * is kept as is; the odd–even merge network over the same rows runs
      * 1.6M, with one comparison each.
      * Comparisons are far costlier than equality in additive sharing
      * (bit-decomposition vs. masked zero-test), hence the gap.
      */
    cmp: Double,
    /** One Beaver-triple multiplication (also one flag-mux). */
    mul: Double,
    /** One network round-trip between parties. */
    round: Double,
    /** Per-element cost of a resharing-based oblivious shuffle. */
    shuffleEl: Double,
    /** Garbled-circuit backends: seconds per gate. */
    gate: Double,
    /** Garbled-circuit backends: bytes of live wire-label state per record,
      * per unit of op-specific circuit width (see `GcOpWidth`).
      */
    labelBytes: Long,
    /** Simulated memory ceiling in bytes; 0 = unlimited. */
    memCeiling: Long,
    /** Fixed per-MPC-invocation setup cost (circuit generation, handshakes).
      * Dominates SMCQL's per-slice executions (Fig. 7a).
      */
    setup: Double,
)

object CostParams {

  /** Sharemind-like 3-party secret-sharing backend (paper's primary MPC). */
  val Sharemind: CostParams = CostParams(
    name = "sharemind",
    rowTouch = 2.0e-4,
    eq = 1.4e-5,
    cmp = 3.0e-4,
    mul = 2.0e-6,
    round = 1.0e-3,
    shuffleEl = 8.0e-6,
    gate = 0.0, labelBytes = 0L, memCeiling = 0L,
    setup = 2.0,
  )

  /** Obliv-C-like 2-party garbled-circuit backend.
    * Anchors: join OOMs at ~30k input records, projection at ~300k
    * (Fig. 1b/1c); gate rate ~1M gates/s.
    */
  val OblivC: CostParams = CostParams(
    name = "obliv-c",
    rowTouch = 5.0e-5,
    eq = 0.0, cmp = 0.0, mul = 0.0, round = 0.0, shuffleEl = 0.0,
    gate = 1.0e-6,
    labelBytes = 16L,
    memCeiling = 4L * 1024 * 1024 * 1024,
    setup = 1.0,
  )

  /** ObliVM-like garbled-circuit backend used by the SMCQL baseline.
    * The paper notes ObliVM is considerably slower than Sharemind and
    * Obliv-C, "particularly on large data" (§7.4): slower gates and a heavy
    * per-invocation setup that dominates sliced execution.
    */
  val ObliVM: CostParams = CostParams(
    name = "oblivm",
    rowTouch = 1.0e-4,
    eq = 0.0, cmp = 0.0, mul = 0.0, round = 0.0, shuffleEl = 0.0,
    // Anchor: SMCQL comorbidity exceeds an hour at 20k total input rows
    // (~2k rows entering MPC after the aggregation split), §7.4.
    gate = 5.0e-5,
    labelBytes = 24L,
    memCeiling = 24L * 1024 * 1024 * 1024,
    setup = 1.0,
  )
}

/** Simulated out-of-memory in a garbled-circuit backend (Obliv-C genuinely
  * OOMs at ~30k join records on the paper's 4 GB VMs).
  */
final case class MpcOutOfMemory(backend: String, op: String, bytes: Long, ceiling: Long)
    extends RuntimeException(
      s"$backend: simulated OOM in $op: circuit state ${bytes / (1024 * 1024)} MiB " +
        s"exceeds ${ceiling / (1024 * 1024)} MiB")

/** Mutable meter of executed MPC primitives for one query execution.
  *
  * Counters are incremented by the engines/protocols as they actually run;
  * `modeledSeconds` converts them to simulated wall-clock using the
  * backend's `CostParams`.
  */
final class CostMeter(val params: CostParams) {
  var rowsTouched: Long = 0
  var eqs: Long = 0
  var cmps: Long = 0
  var muls: Long = 0
  var rounds: Long = 0
  var shuffledElems: Long = 0
  var gates: Long = 0
  var setups: Long = 0
  /** High-water mark of simulated circuit state (GC backends). */
  var peakMemBytes: Long = 0

  def addRows(n: Long): Unit = rowsTouched += n
  def addEq(n: Long = 1): Unit = eqs += n
  def addCmp(n: Long = 1): Unit = cmps += n
  def addMul(n: Long = 1): Unit = muls += n
  def addRound(n: Long = 1): Unit = rounds += n
  def addShuffle(elems: Long): Unit = shuffledElems += elems
  def addGates(n: Long): Unit = gates += n
  def addSetup(n: Long = 1): Unit = setups += n

  /** Track simulated memory; throws `MpcOutOfMemory` above the ceiling. */
  def checkMem(op: String, bytes: Long): Unit = {
    if (bytes > peakMemBytes) peakMemBytes = bytes
    if (params.memCeiling > 0 && bytes > params.memCeiling)
      throw MpcOutOfMemory(params.name, op, bytes, params.memCeiling)
  }

  /** Add every counter of `other`, `times` over, into this meter; peak
    * memory is the larger of the two.
    */
  def absorb(other: CostMeter, times: Long = 1): Unit = {
    rowsTouched += times * other.rowsTouched; eqs += times * other.eqs; cmps += times * other.cmps
    muls += times * other.muls; rounds += times * other.rounds
    shuffledElems += times * other.shuffledElems; gates += times * other.gates
    setups += times * other.setups
    peakMemBytes = math.max(peakMemBytes, other.peakMemBytes)
  }

  def modeledSeconds: Double =
    rowsTouched * params.rowTouch +
      eqs * params.eq +
      cmps * params.cmp +
      muls * params.mul +
      rounds * params.round +
      shuffledElems * params.shuffleEl +
      gates * params.gate +
      setups * params.setup

  def snapshot: CostSnapshot =
    CostSnapshot(rowsTouched, eqs, cmps, muls, rounds, shuffledElems, gates, setups,
      peakMemBytes, modeledSeconds)

  def reset(): Unit = {
    rowsTouched = 0; eqs = 0; cmps = 0; muls = 0; rounds = 0
    shuffledElems = 0; gates = 0; setups = 0; peakMemBytes = 0
  }
}

/** Immutable copy of a meter's counters, for reporting. */
final case class CostSnapshot(
    rowsTouched: Long, eqs: Long, cmps: Long, muls: Long, rounds: Long,
    shuffledElems: Long, gates: Long, setups: Long, peakMemBytes: Long,
    modeledSeconds: Double)

/** Cost of the oblivious kernels whose runs the benchmark tables guard
  * against the two-hour cap, from public sizes only. A predictor runs one
  * step of the kernel on a fresh engine of the family `params` prices and
  * scales that step's meter by the step count, so the kernels stay the only
  * definition of what an operator costs.
  */
object CostModel {

  private def charged(params: CostParams)(charge: CostMeter => Unit): CostSnapshot = {
    val m = new CostMeter(params)
    charge(m)
    m.snapshot
  }

  /** The meter of `op` run on a fresh engine of the family `params` prices. */
  private def step(params: CostParams)(op: MpcEngine => Unit): CostMeter = {
    val m = new CostMeter(params)
    op(if (params.gate > 0) new GarbledCircuitEngine(m) else new SecretSharingEngine(0L, m))
    m
  }

  /** An odd–even merge sort of `rows` rows of `width` columns, with a
    * validity column if `validity`, by keys with the given directions
    * (`Oblivious.sortBy`). The network touches each row once and runs
    * `Oblivious.sortPairs(rows)` compare-exchanges; one compare-exchange is
    * what a 2-row sort of the same width, validity and keys charges beyond
    * its 2 row touches.
    */
  def sort(params: CostParams, rows: Long, width: Int, ascending: Seq[Boolean],
      validity: Boolean): CostSnapshot =
    charged(params) { m =>
      if (rows > 1) {
        require(ascending.length <= width, s"${ascending.length} sort keys over $width columns")
        val keys = ascending.zipWithIndex.map { case (asc, i) => Oblivious.SortKey(i, asc) }
        val exchange = step(params) { e =>
          val cols = Vector.fill(width)(e.constant(0L, 2))
          val valid = if (validity) Some(e.constant(1L, 2)) else None
          Oblivious.sortBy(e, SharedRelation(cols.indices.map(i => s"c$i").toVector, cols, valid), keys)
        }
        exchange.rowsTouched -= 2
        m.absorb(exchange, Oblivious.sortPairs(rows))
        m.addRows(rows)
      }
    }

  /** The n·m·k oblivious equality tests of a Cartesian join of `left` by
    * `right` rows on `keys` key columns (`Oblivious.cartesianJoin`), and
    * nothing else.
    */
  def cartesianJoin(params: CostParams, left: Long, right: Long, keys: Int): CostSnapshot =
    charged(params) { m =>
      val eq = step(params)(e => e.eq(e.constant(0L, 1), e.constant(0L, 1)))
      m.absorb(eq, left * right * keys)
    }

  /** `count` per-invocation setups (circuit generation and handshakes). */
  def setups(params: CostParams, count: Long): CostSnapshot = charged(params)(_.addSetup(count))

  /** One storage-layer touch per row, as a projection charges. */
  def scan(params: CostParams, rows: Long): CostSnapshot = charged(params)(_.addRows(rows))
}
