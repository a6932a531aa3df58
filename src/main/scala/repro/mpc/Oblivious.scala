package repro.mpc

import repro.core.AggFn

import java.util.stream.IntStream

import scala.collection.mutable.ArrayBuilder

/** Data-oblivious relational algorithms, generic over the MPC engine.
  *
  * Every algorithm has data-independent control flow (modulo explicitly
  * authorized reveals, which the caller logs as leakage): a bitonic sorting
  * network, the sorting-based grouped aggregation of Jónsson et al. [39],
  * a Cartesian-product join that opens match flags only after an oblivious
  * shuffle (the output-size-leaking Sharemind join the paper benchmarks),
  * and the oblivious indexing protocol of Laud [45] used by hybrid joins.
  *
  * Data-parallel steps run a whole column per engine call (a bitonic layer,
  * a filter predicate, the keep flags, one left row's join candidates).
  * Inherently sequential scans (the group fold, distinct's seen-chain, the
  * global min/max folds) run element by element over the same arrays. The
  * sorting network's layers and the Cartesian join's left rows also run in
  * fixed-size blocks across cores, each block on its own engine fork.
  */
object Oblivious {

  /** One sort key: column index + direction. */
  final case class SortKey(col: Int, ascending: Boolean = true)

  // ---------------------------------------------------------------- shuffle

  /** Draw and charge the permutation of a resharing-based oblivious shuffle
    * of `rel`: no party learns it.
    */
  private def shufflePermutation(e: MpcEngine, rel: SharedRelation): Array[Int] = {
    val perm = e.secretPermutation(rel.size)
    e.chargeShuffle(rel.size.toLong, rel.width.toLong + 1)
    perm
  }

  /** Resharing-based oblivious shuffle: no party learns the permutation. */
  def shuffle(e: MpcEngine, rel: SharedRelation): SharedRelation =
    rel.gather(shufflePermutation(e, rel))

  /** Reorder rows by a public permutation (no oblivious cost beyond I/O) —
    * e.g. the STP-provided ordering in a hybrid aggregation.
    */
  def applyPublicPermutation(e: MpcEngine, rel: SharedRelation, perm: Array[Int]): SharedRelation = {
    require(perm.length == rel.size, "permutation size mismatch")
    e.chargeRows(rel.size.toLong)
    rel.gather(perm)
  }

  /** Open the 0/1 `flags` in shuffled order `perm` (one round) and return the
    * positions of the flagged rows in that order.
    */
  private def openFlagged(e: MpcEngine, perm: Array[Int], flags: SharedCol): Array[Int] = {
    val opened = e.open(flags.gather(perm))
    val kept = new ArrayBuilder.ofInt
    var t = 0
    while (t < perm.length) { if (opened(t) == 1L) kept += perm(t); t += 1 }
    kept.result()
  }

  /** Shuffle `cols` together with their 0/1 `keep` flags, open the flags and
    * keep the flagged rows. Reveals the kept count (caller must log it).
    */
  private[mpc] def shuffleKeep(e: MpcEngine, schema: Vector[String], cols: Vector[SharedCol],
      keep: SharedCol): SharedRelation = {
    val tagged = SharedRelation(schema :+ "__keep", cols :+ keep)
    val kept = openFlagged(e, shufflePermutation(e, tagged), keep)
    SharedRelation(schema, cols.map(_.gather(kept)))
  }

  // ----------------------------------------------------------------- blocks

  /** Compare-exchanges per block of a sorting-network layer, and left rows
    * per block of a Cartesian join. Both are constants, so shares,
    * permutations and counters are the same on every machine; the size of
    * the pool the blocks run on changes only the speed.
    */
  private[mpc] val SortBlock = 1024
  private[mpc] val JoinBlock = 128

  /** `body(b)` for every block b: inline for one block, otherwise as a
    * parallel stream, i.e. on the common ForkJoin pool (or the pool the
    * caller runs in), with the calling thread taking part.
    */
  private def forBlocks(blocks: Int)(body: Int => Unit): Unit =
    if (blocks == 1) body(0) else IntStream.range(0, blocks).parallel().forEach(b => body(b))

  // ------------------------------------------------------------------- sort

  /** Bitonic sorting network over `keys`, O(n log^2 n) oblivious
    * compare-exchanges. Invalid rows (validity 0) always sort after valid
    * ones; the relative order of data is by `keys`. Rows are padded to a
    * power of two with invalid sentinel rows that are dropped afterwards
    * (their final positions are data-independent in count).
    *
    * Each layer of the network (all p/2 compare-exchanges of one step) is
    * gathered into scratch columns, run as one batch and scattered back.
    * The pairs of a layer touch disjoint rows, so a layer runs in blocks of
    * `SortBlock` pairs, each block on its own engine fork and its own range
    * of the scratch columns.
    */
  def sortBy(e: MpcEngine, rel: SharedRelation, keys: Seq[SortKey]): SharedRelation = {
    val n = rel.size
    if (n <= 1) return rel
    var p = 1
    while (p < n) p <<= 1

    // Working state: cells and per-row validity, padded with sentinel rows.
    def padded(c: SharedCol): SharedCol =
      if (p == n) c.slice(0, n) else SharedCol.concat(Seq(c, e.constant(0L, p - n)))
    val cells = rel.cols.map(padded)
    val valid = padded(rel.validity.getOrElse(e.constant(1L, n)))
    e.chargeRows(p.toLong)

    // Per layer: pair t compares row first(t) with row second(t), and
    // swaps them if first(t) sorts after second(t).
    val h = p / 2
    val blocks = (h + SortBlock - 1) / SortBlock
    val engines = Array.fill(blocks)(e.fork())
    val first = new Array[Int](h); val second = new Array[Int](h)
    val as = cells.map(_ => e.alloc(h)); val bs = cells.map(_ => e.alloc(h))
    val va = e.alloc(h); val vb = e.alloc(h)
    val sw = e.alloc(h); val eqSoFar = e.alloc(h)
    val t1 = e.alloc(h); val t2 = e.alloc(h); val ltf = e.alloc(h); val eqf = e.alloc(h)

    // sw = "a sorts after b" for pairs [o, o + m): validity descending, then
    // keys in order.
    def after(c: MpcEngine, o: Int, m: Int): Unit = {
      // validity level: a after b iff va < vb, i.e. vb AND NOT va = vb - va*vb
      c.mulFlag(va, vb, t1, m, o, o, o); c.sub(vb, t1, sw, m, o, o, o)
      // eq on 0/1 flags: 1 - (va XOR vb) = 1 - va - vb + 2*va*vb
      c.mulFlag(va, vb, t1, m, o, o, o); c.mulFlag(va, vb, t2, m, o, o, o)
      c.add(t1, t2, t1, m, o, o, o)
      c.add(va, vb, t2, m, o, o, o); c.sub(t1, t2, t1, m, o, o, o); c.addPub(t1, 1L, eqSoFar, m, o, o)
      keys.foreach { k =>
        val x = as(k.col); val y = bs(k.col)
        c.lt(x, y, ltf, m, o, o, o); c.eq(x, y, eqf, m, o, o, o)
        // ascending: a after b iff x > y  = 1 - lt - eq (disjoint events)
        val cmpFlag =
          if (k.ascending) { c.not(ltf, t1, m, o, o); c.sub(t1, eqf, t1, m, o, o, o); t1 }
          else ltf
        c.mulFlag(eqSoFar, cmpFlag, t2, m, o, o, o); c.add(sw, t2, sw, m, o, o, o) // disjoint OR
        c.mulFlag(eqSoFar, eqf, eqSoFar, m, o, o, o)
      }
    }

    // a, b = sw ? (b, a) : (a, b) for pairs [o, o + m)
    def exchange(c: MpcEngine, a: SharedCol, b: SharedCol, o: Int, m: Int): Unit = {
      c.sub(b, a, t1, m, o, o, o); c.mulFlag(sw, t1, t1, m, o, o, o)
      c.add(a, t1, a, m, o, o, o); c.sub(b, t1, b, m, o, o, o)
    }

    // The step of the network that compares rows j apart inside each
    // bitonic sequence of k rows; block b runs pairs [from, until) on
    // engines(b).
    def layer(k: Int, j: Int): Unit = forBlocks(blocks) { b =>
      val c = engines(b)
      val from = b * SortBlock; val until = math.min(h, from + SortBlock)
      var t = from
      while (t < until) {
        // The t-th row x whose j bit is clear: t with a 0 bit inserted at j.
        val x = ((t & ~(j - 1)) << 1) | (t & (j - 1)); val l = x | j
        // Ascending sequences keep the smaller row at x, descending at l.
        if ((x & k) == 0) { first(t) = x; second(t) = l } else { first(t) = l; second(t) = x }
        t += 1
      }
      cells.indices.foreach { i =>
        cells(i).gatherInto(first, as(i), from, until); cells(i).gatherInto(second, bs(i), from, until)
      }
      valid.gatherInto(first, va, from, until); valid.gatherInto(second, vb, from, until)
      after(c, from, until - from)
      cells.indices.foreach(i => exchange(c, as(i), bs(i), from, until - from))
      exchange(c, va, vb, from, until - from)
      cells.indices.foreach { i =>
        cells(i).scatterFrom(as(i), first, from, until); cells(i).scatterFrom(bs(i), second, from, until)
      }
      valid.scatterFrom(va, first, from, until); valid.scatterFrom(vb, second, from, until)
    }

    var k = 2
    while (k <= p) {
      var j = k >> 1
      while (j > 0) { layer(k, j); j >>= 1 }
      k <<= 1
    }
    engines.foreach(c => e.meter.absorb(c.meter))

    SharedRelation(
      rel.schema,
      cells.map(_.slice(0, n)),
      if (rel.validity.isDefined) Some(valid.slice(0, n)) else None,
    )
  }

  // ----------------------------------------------------------------- filter

  /** Order-preserving, size-hiding filter: ANDs the predicate's 0/1 `flags`
    * (one per row) into the validity column. Nothing is revealed.
    */
  def filter(e: MpcEngine, rel: SharedRelation, flags: SharedCol): SharedRelation = {
    e.chargeRows(rel.size.toLong)
    rel.copy(validity = Some(rel.validity.fold(flags)(e.and(_, flags))))
  }

  /** Materialize a filtered relation: shuffle, open validity flags, drop
    * invalid rows. Reveals the surviving row count (caller must log it).
    */
  def compact(e: MpcEngine, rel: SharedRelation): SharedRelation = rel.validity match {
    case None => rel
    case Some(v) =>
      val kept = openFlagged(e, shufflePermutation(e, rel), v)
      SharedRelation(rel.schema, rel.cols.map(_.gather(kept)))
  }

  // ------------------------------------------------------------- aggregation

  /** `same(i)` = 1 iff row i equals row i-1 on every column of `cols`;
    * `same(0)` = 0.
    */
  private def continues(e: MpcEngine, cols: Seq[SharedCol], n: Int): SharedCol = {
    val same = SharedCol.concat(Seq(e.alloc(1), e.constant(1L, n - 1)))
    val eqc = e.alloc(n - 1)
    cols.foreach { c =>
      e.eq(c, c, eqc, n - 1, ai = 1)
      e.mulFlag(same, eqc, same, n - 1, ai = 1, oi = 1)
    }
    same
  }

  /** Flags marking the last row of each run: `not(same(i + 1))`, and 1 for
    * the last row.
    */
  private[mpc] def lastOfRun(e: MpcEngine, same: SharedCol): SharedCol = {
    val n = same.length
    val last = e.constant(1L, n)
    e.not(same, last, n - 1, ai = 1)
    last
  }

  /** Jónsson's linear scan: fold each run of rows into its last row, where
    * `same(i)` says row i continues row i-1's run. Sequential by nature, so
    * it runs one element at a time over `agg`, in place.
    */
  private[mpc] def foldRuns(e: MpcEngine, fn: AggFn, same: SharedCol, agg: SharedCol): Unit = {
    val take = e.alloc(1)
    var i = 1
    while (i < agg.length) {
      fn match {
        case AggFn.Sum | AggFn.Count =>
          e.mulFlag(same, agg, take, 1, ai = i, bi = i - 1)
          e.add(agg, take, agg, 1, ai = i, oi = i)
        case AggFn.Min =>
          e.lt(agg, agg, take, 1, ai = i - 1, bi = i)
          e.mulFlag(same, take, take, 1, ai = i)
          e.mux(take, agg, agg, agg, 1, ai = i - 1, bi = i, oi = i)
        case AggFn.Max =>
          e.lt(agg, agg, take, 1, ai = i, bi = i - 1)
          e.mulFlag(same, take, take, 1, ai = i)
          e.mux(take, agg, agg, agg, 1, ai = i - 1, bi = i, oi = i)
      }
      i += 1
    }
  }

  /** Grouped aggregation per Jónsson et al.: sort by group key, obliviously
    * fold each group into its last row, shuffle, open keep-flags, discard.
    * Reveals the number of groups (the output size — the paper's protocols
    * do not pad, §7.4 comorbidity).
    *
    * Output schema: group columns ++ [outName]; no validity column.
    */
  def aggregate(
      e: MpcEngine,
      rel: SharedRelation,
      groupIdxs: Seq[Int],
      aggIdx: Option[Int],
      fn: AggFn,
      outName: String,
      preSorted: Boolean = false,
  ): SharedRelation = {
    require(groupIdxs.nonEmpty, "use globalAggregate for group-less aggregation")
    val outSchema = groupIdxs.map(rel.schema).toVector :+ outName
    if (rel.size == 0) return SharedRelation(outSchema, outSchema.map(_ => e.alloc(0)))

    // The sorting network may be skipped when the input is already grouped
    // (sort elimination, §5.4) — but only if no validity column could
    // interleave invalid rows into a group run.
    val sorted =
      if (preSorted && rel.validity.isEmpty) rel
      else sortBy(e, rel, groupIdxs.map(SortKey(_)))
    val n = sorted.size
    val valid = sorted.validity.getOrElse(e.constant(1L, n))
    val groups = groupIdxs.map(sorted.cols).toVector

    // Initial per-row contribution, gated by validity.
    val agg = fn match {
      case AggFn.Count => e.mulPub(valid, Fixed.Scale)
      case AggFn.Sum   => e.mulFlag(valid, sorted.cols(aggIdx.get))
      case AggFn.Min   => e.mux(valid, sorted.cols(aggIdx.get), e.constant(Fixed.Big, n))
      case AggFn.Max   => e.mux(valid, sorted.cols(aggIdx.get), e.constant(-Fixed.Big, n))
    }

    // same(i): row i continues row i-1's group. Gated by row i's validity so
    // an invalid row with an equal key can never absorb (and then drop) a
    // group's accumulated aggregate.
    val same = continues(e, groups, n)
    e.mulFlag(same, valid, same, n - 1, ai = 1, bi = 1, oi = 1)
    foldRuns(e, fn, same, agg)

    // Keep the last row of each (valid) group.
    val keep = lastOfRun(e, same)
    e.mulFlag(keep, valid, keep, n)
    shuffleKeep(e, outSchema, groups :+ agg, keep)
  }

  /** Group-less aggregation: a single output row, nothing revealed. */
  def globalAggregate(
      e: MpcEngine,
      rel: SharedRelation,
      aggIdx: Option[Int],
      fn: AggFn,
      outName: String,
  ): SharedRelation = {
    val n = rel.size
    e.chargeRows(n.toLong)
    val valid = rel.validity.getOrElse(e.constant(1L, n))
    def values = rel.cols(aggIdx.get)
    // Each row's contribution, and the fold's starting value.
    val (xs, acc) = fn match {
      case AggFn.Count => (e.mulPub(valid, Fixed.Scale), e.constant(0L, 1))
      case AggFn.Sum   => (e.mulFlag(valid, values), e.constant(0L, 1))
      case AggFn.Min   => (e.mux(valid, values, e.constant(Fixed.Big, n)), e.constant(Fixed.Big, 1))
      case AggFn.Max   => (e.mux(valid, values, e.constant(-Fixed.Big, n)), e.constant(-Fixed.Big, 1))
    }
    val better = e.alloc(1)
    var i = 0
    while (i < n) {
      fn match {
        case AggFn.Sum | AggFn.Count => e.add(acc, xs, acc, 1, bi = i)
        case AggFn.Min =>
          e.lt(xs, acc, better, 1, ai = i)
          e.mux(better, xs, acc, acc, 1, ai = i)
        case AggFn.Max =>
          e.lt(acc, xs, better, 1, bi = i)
          e.mux(better, xs, acc, acc, 1, ai = i)
      }
      i += 1
    }
    SharedRelation(Vector(outName), Vector(acc))
  }

  // ---------------------------------------------------------------- distinct

  /** Oblivious duplicate elimination over `keyIdxs`: marks all but the first
    * valid row of each key group invalid. Size-hiding (no reveal). When
    * `preSorted`, the O(n log^2 n) sorting network is skipped and a linear
    * scan suffices — the optimization Conclave's sort-elimination pass
    * enables (paper §7.4, aspirin count).
    */
  def distinct(
      e: MpcEngine,
      rel: SharedRelation,
      keyIdxs: Seq[Int],
      preSorted: Boolean,
  ): SharedRelation = {
    if (rel.size == 0) return rel
    val sorted = if (preSorted) rel else sortBy(e, rel, keyIdxs.map(SortKey(_)))
    val n = sorted.size
    val valid = sorted.validity.getOrElse(e.constant(1L, n))
    e.chargeRows(n.toLong)
    val same = continues(e, keyIdxs.map(sorted.cols), n)

    // seen(i): an earlier row of this key run was valid:
    // seen(i) = same(i) AND (seen(i-1) OR valid(i-1)).
    val seen = e.alloc(n)
    val or = e.alloc(1); val both = e.alloc(1)
    var i = 1
    while (i < n) {
      e.add(seen, valid, or, 1, ai = i - 1, bi = i - 1)
      e.mulFlag(seen, valid, both, 1, ai = i - 1, bi = i - 1)
      e.sub(or, both, or, 1)
      e.mulFlag(same, or, seen, 1, ai = i, oi = i)
      i += 1
    }
    val newValid = valid.slice(0, n)
    e.not(seen, seen, n - 1, ai = 1, oi = 1)
    e.mulFlag(valid, seen, newValid, n - 1, ai = 1, bi = 1, oi = 1)
    sorted.copy(validity = Some(newValid))
  }

  // -------------------------------------------------------------------- join

  /** Cartesian-product MPC join — the standard algorithm the paper implements
    * in both Sharemind and Obliv-C (§6): O(n·m) oblivious equality tests,
    * then an oblivious shuffle of the candidates and an opening of the match
    * flags. Leaks the output size (as the paper's Sharemind baseline does,
    * §7.3). Output schema: left keys ++ left rest ++ right rest.
    */
  def cartesianJoin(
      e: MpcEngine,
      left: SharedRelation,
      right: SharedRelation,
      lKeys: Seq[Int],
      rKeys: Seq[Int],
  ): SharedRelation = {
    require(lKeys.length == rKeys.length && lKeys.nonEmpty, "bad join keys")
    val n = left.size.toLong; val m = right.size.toLong
    require(n * m <= 2_000_000_000L,
      s"simulated MPC join too large: $n x $m candidate pairs")

    // One left row against the whole right relation per step: the left
    // row's cells are broadcast into `lv`, the candidate flags built in `f`.
    // Left rows run in blocks of `JoinBlock`, each on its own engine fork
    // with its own scratch; the matches are concatenated in block order, so
    // they stay ordered by left row, then right row.
    val mi = right.size
    val blocks = math.max(1, (left.size + JoinBlock - 1) / JoinBlock)
    val engines = Array.fill(blocks)(e.fork())
    val lMatches = new Array[Array[Int]](blocks); val rMatches = new Array[Array[Int]](blocks)
    forBlocks(blocks) { b =>
      val c = engines(b)
      val row = new Array[Int](mi)
      val lv = c.alloc(mi); val f = c.alloc(mi); val eqf = c.alloc(mi)
      val lMatch = new ArrayBuilder.ofInt; val rMatch = new ArrayBuilder.ofInt
      var i = b * JoinBlock
      val until = math.min(left.size, i + JoinBlock)
      while (i < until) {
        java.util.Arrays.fill(row, i)
        lKeys.indices.foreach { k =>
          left.cols(lKeys(k)).gatherInto(row, lv, 0, mi)
          if (k == 0) c.eq(lv, right.cols(rKeys(k)), f, mi)
          else { c.eq(lv, right.cols(rKeys(k)), eqf, mi); c.mulFlag(f, eqf, f, mi) }
        }
        left.validity.foreach { v => v.gatherInto(row, lv, 0, mi); c.mulFlag(f, lv, f, mi) }
        right.validity.foreach(v => c.mulFlag(f, v, f, mi))
        // The protocol shuffles the bit-packed candidate-flag vector and
        // opens it; we materialize only the matches (the open reveals them
        // anyway). The O(n·m) oblivious equality tests above dominate, as
        // in the paper's complexity analysis (§5.3).
        val flags = c.idealOpen(f)
        var j = 0
        while (j < mi) { if (flags(j) == 1L) { lMatch += i; rMatch += j }; j += 1 }
        i += 1
      }
      lMatches(b) = lMatch.result(); rMatches(b) = rMatch.result()
    }
    engines.foreach(c => e.meter.absorb(c.meter))
    val ls = lMatches.flatten; val rs = rMatches.flatten
    val matches = ls.length.toLong
    e.chargeRows(n + m + matches)
    e.chargeShuffle(n * m / 64 + 1, 1L) // bit-packed flag vector shuffle
    e.meter.addRound(1) // one opening round for the flag vector
    val perm = e.secretPermutation(ls.length)
    val lIdx = perm.map(ls(_)); val rIdx = perm.map(rs(_))
    val out = joinOutput(left.schema, right.schema, lKeys, rKeys)(
      _.map(left.cols(_).gather(lIdx)), _.map(right.cols(_).gather(rIdx)))
    e.chargeShuffle(matches, out.width.toLong)
    out
  }

  /** The output of an equi-join: left keys ++ left rest ++ right rest (the
    * right keys equal the left ones and are dropped). `lCols` and `rCols`
    * give each side's matched rows, row-aligned, for the column indexes
    * asked; the left side is asked first.
    */
  private[mpc] def joinOutput(lSchema: Seq[String], rSchema: Seq[String], lKeys: Seq[Int],
      rKeys: Seq[Int])(lCols: Seq[Int] => Seq[SharedCol],
      rCols: Seq[Int] => Seq[SharedCol]): SharedRelation = {
    val lOut = lKeys ++ lSchema.indices.filterNot(lKeys.contains)
    val rOut = rSchema.indices.filterNot(rKeys.contains)
    val l = lCols(lOut)
    SharedRelation((lOut.map(lSchema) ++ rOut.map(rSchema)).toVector, (l ++ rCols(rOut)).toVector)
  }

  // --------------------------------------------------- oblivious indexing

  /** Oblivious indexing (select) per Laud [45]: given secret indexes into
    * `rel`, returns the rows at those positions without revealing which.
    * Cost O((n+m) log(n+m)) — this is what makes the hybrid join an
    * asymptotic improvement over the Cartesian join.
    * Simulated as its ideal functionality with the protocol's cost charged.
    */
  def select(e: MpcEngine, rel: SharedRelation, idxs: SharedCol): SharedRelation = {
    require(rel.validity.isEmpty, "select requires a compacted relation")
    val n = rel.size.toLong; val m = idxs.length.toLong
    val logNm = Log2.ceil(n + m)
    e.meter.addMul((n + m) * logNm * rel.width)
    e.meter.addRound(logNm)
    e.chargeRows(n + m)
    val opened = e.idealOpen(idxs)
    val pos = new Array[Int](opened.length)
    var t = 0
    while (t < pos.length) {
      val i = opened(t)
      require(i >= 0 && i < rel.size, s"oblivious index $i out of range 0..${rel.size}")
      pos(t) = i.toInt
      t += 1
    }
    rel.gather(pos)
  }

  // ------------------------------------------------------------------ reveal

  /** Open an entire relation (e.g. at the MPC frontier to the recipients).
    * Invalid rows are compacted away first (revealing the surviving count —
    * that count is part of the revealed output anyway). Callers go through
    * `MpcBackend.reveal`, which logs the reveal.
    */
  private[mpc] def reveal(e: MpcEngine, rel: SharedRelation): Vector[Vector[Double]] = {
    val compacted = compact(e, rel)
    e.chargeRows(compacted.size.toLong)
    if (compacted.size == 0) return Vector.empty
    val opened = e.open(compacted.cols) // one opening round
    Vector.tabulate(compacted.size)(i => opened.map(c => Fixed.decode(c(i))).toVector)
  }
}
