package repro.mpc

import java.util.stream.IntStream

import scala.collection.mutable.ArrayBuilder

/** The data-oblivious kernels that run on a bare [[MpcEngine]], with no
  * backend, leakage log or memory check: an oblivious shuffle, Batcher's
  * odd–even merge sorting network, a Cartesian-product join that learns its
  * match flags only as the protocol's shuffled opening would (the
  * output-size-leaking Sharemind join the paper benchmarks), and the
  * oblivious indexing protocol of Laud [45] used by hybrid joins. Every
  * kernel has data-independent control flow, apart from the join's match
  * count, which its caller records. The relational operators built on them,
  * with the values they open and record, are [[MpcBackend]]'s.
  *
  * Data-parallel steps run a whole column per engine call (a network layer,
  * one left row's join candidates). The sorting network's layers and the
  * Cartesian join's left rows also run in fixed-size blocks across cores,
  * each block on its own engine fork.
  */
object Oblivious {

  /** One sort key: column index + direction. */
  final case class SortKey(col: Int, ascending: Boolean = true)

  // ---------------------------------------------------------------- shuffle

  /** Draw and charge the permutation of a resharing-based oblivious shuffle
    * of `rel`, which moves its columns and its validity flags, if any: no
    * party learns it.
    */
  private[mpc] def shufflePermutation(e: MpcEngine, rel: SharedRelation): Array[Int] = {
    val perm = e.secretPermutation(rel.size)
    e.chargeShuffle(rel.size.toLong, rel.width.toLong + (if (rel.validity.isDefined) 1 else 0))
    perm
  }

  /** Resharing-based oblivious shuffle: no party learns the permutation. */
  def shuffle(e: MpcEngine, rel: SharedRelation): SharedRelation =
    rel.gather(shufflePermutation(e, rel))

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

  /** The layers of Batcher's odd–even merge sort (AFIPS 1968) over `n`
    * rows, in order. For each run length P = 1, 2, 4, … below n, the runs of
    * P sorted rows are merged in pairs: layer (P, P) pairs each row of a
    * block of 2P rows with the row P above it, and each later layer (P, k),
    * k = P/2, …, 1, pairs rows k apart inside the block, leaving its first
    * and last k rows alone. A comparator between two real rows is kept and
    * one that touches an index ≥ n is dropped (see [[sortBy]]).
    */
  private[mpc] def sortLayers(n: Long): Iterator[(Long, Long)] =
    Iterator.iterate(1L)(_ << 1).takeWhile(_ < n)
      .flatMap(p => Iterator.iterate(p)(_ >> 1).takeWhile(_ > 0).map(k => (p, k)))

  /** The lower row of pair t of layer (p, k); its upper row is k above it.
    * Pairs are in lower-row order, so a layer's pairs between real rows are
    * a prefix `[0, layerPairs(n, p, k))`.
    */
  private[mpc] def lowerRow(p: Int, k: Int, t: Int): Int =
    if (k == p) t / p * 2 * p + t % p
    else t / (p - k) * 2 * p + k + t % (p - k) / k * 2 * k + t % k

  /** The rows below n with bit j set: j per full run of 2j rows plus those
    * of the partial run.
    */
  private def withBit(n: Long, j: Long): Long = n / (2 * j) * j + math.max(0L, n % (2 * j) - j)

  /** The pairs of layer (p, k) whose rows are both below n: on the first
    * layer of a merge, one per row below n with bit p set; on a later one,
    * p − k per full block of 2p rows, plus those of the partial block, whose
    * lower rows are its rows with bit k set below its length less k.
    */
  private[mpc] def layerPairs(n: Long, p: Long, k: Long): Long =
    if (k == p) withBit(n, p)
    else n / (2 * p) * (p - k) + withBit(math.max(0L, n % (2 * p) - k), k)

  /** The compare-exchanges a sort of `n` rows runs: (L² − L + 4)·n/4 − 1
    * at a power of two n = 2^L, fewer than the network over the next power of
    * two otherwise.
    */
  def sortPairs(n: Long): Long = sortLayers(n).map { case (p, k) => layerPairs(n, p, k) }.sum

  /** Batcher's odd–even merge sorting network over `keys`, O(n log^2 n)
    * oblivious compare-exchanges. Invalid rows (validity 0) always sort
    * after valid ones; the relative order of data is by `keys`.
    *
    * Every comparator puts the row that sorts first at the lower index. Rows
    * from n up to the next power of two would be sentinel rows that sort
    * after every real row, so a comparator touching one never swaps; the
    * kernel runs only the `sortPairs(n)` comparators between real rows.
    * Which ones run depends only on the public n.
    *
    * A compare-exchange runs one comparison per key, and an equality test
    * only for a key that another key follows; a relation with no validity
    * column has no validity level and exchanges only its cells.
    *
    * Each layer of the network (at most n/2 compare-exchanges, disjoint
    * pairs) is gathered into scratch columns, run as one batch and scattered
    * back, in blocks of `SortBlock` pairs, each block on its own engine fork
    * (drawn once per sort, in block order) and its own range of the scratch
    * columns.
    */
  def sortBy(e: MpcEngine, rel: SharedRelation, keys: Seq[SortKey]): SharedRelation = {
    val n = rel.size
    if (n <= 1) return rel

    // Working state: copies of the cells and of the validity flags, if any,
    // which move with them.
    val valid = rel.validity.map(_.slice(0, n))
    val cells = rel.cols.map(_.slice(0, n))
    val moved = cells ++ valid
    e.chargeRows(n.toLong)

    // Per layer: pair t compares row first(t) with the higher row
    // second(t), and swaps them if first(t) sorts after second(t).
    val h = n / 2
    val engines = Array.fill((h + SortBlock - 1) / SortBlock)(e.fork())
    val first = new Array[Int](h); val second = new Array[Int](h)
    val as = moved.map(_ => e.alloc(h)); val bs = moved.map(_ => e.alloc(h))
    val sw = e.alloc(h); val eqSoFar = e.alloc(h); val t1 = e.alloc(h); val t2 = e.alloc(h)

    // sw = "a sorts after b" for pairs [o, o + m): validity descending, then
    // keys in order.
    def after(c: MpcEngine, o: Int, m: Int): Unit = {
      if (valid.isDefined) {
        val va = as(cells.length); val vb = bs(cells.length)
        // a after b iff va < vb, i.e. vb AND NOT va = vb - va*vb
        c.mulFlag(va, vb, t1, m, o, o, o); c.sub(vb, t1, sw, m, o, o, o)
        // eq on 0/1 flags: 1 - (va XOR vb) = 1 - va - vb + 2*va*vb
        c.add(t1, t1, t1, m, o, o, o); c.add(va, vb, t2, m, o, o, o)
        c.sub(t1, t2, t1, m, o, o, o); c.addPub(t1, 1L, eqSoFar, m, o, o)
      }
      keys.zipWithIndex.foreach { case (k, i) =>
        val x = as(k.col); val y = bs(k.col)
        // The first level decides alone: its flag is the swap flag.
        val decides = valid.isEmpty && i == 0
        val flag = if (decides) sw else t2
        // a after b iff y < x (ascending) or x < y (descending)
        if (k.ascending) c.lt(y, x, flag, m, o, o, o) else c.lt(x, y, flag, m, o, o, o)
        // disjoint OR: earlier levels tie and this one says after
        if (!decides) { c.mulFlag(eqSoFar, t2, t2, m, o, o, o); c.add(sw, t2, sw, m, o, o, o) }
        if (i < keys.length - 1) {
          if (decides) c.eq(x, y, eqSoFar, m, o, o, o)
          else { c.eq(x, y, t1, m, o, o, o); c.mulFlag(eqSoFar, t1, eqSoFar, m, o, o, o) }
        }
      }
    }

    // a, b = sw ? (b, a) : (a, b) for pairs [o, o + m)
    def exchange(c: MpcEngine, a: SharedCol, b: SharedCol, o: Int, m: Int): Unit = {
      c.sub(b, a, t1, m, o, o, o); c.mulFlag(sw, t1, t1, m, o, o, o)
      c.add(a, t1, a, m, o, o, o); c.sub(b, t1, b, m, o, o, o)
    }

    // Layer (p, k): block b runs pairs [from, until) on engines(b).
    def layer(p: Int, k: Int): Unit = {
      val pairs = layerPairs(n, p, k).toInt
      forBlocks((pairs + SortBlock - 1) / SortBlock) { b =>
        val c = engines(b)
        val from = b * SortBlock; val until = math.min(pairs, from + SortBlock)
        var t = from
        while (t < until) {
          val lo = lowerRow(p, k, t)
          first(t) = lo; second(t) = lo + k
          t += 1
        }
        moved.indices.foreach { i =>
          moved(i).gatherInto(first, as(i), from, until); moved(i).gatherInto(second, bs(i), from, until)
        }
        after(c, from, until - from)
        moved.indices.foreach { i =>
          exchange(c, as(i), bs(i), from, until - from)
          moved(i).scatterFrom(as(i), first, from, until); moved(i).scatterFrom(bs(i), second, from, until)
        }
      }
    }

    sortLayers(n).foreach { case (p, k) => layer(p.toInt, k.toInt) }
    engines.foreach(c => e.meter.absorb(c.meter))

    SharedRelation(rel.schema, cells, valid)
  }

  // -------------------------------------------------------------------- join

  /** Cartesian-product MPC join — the standard algorithm the paper implements
    * in both Sharemind and Obliv-C (§6): O(n·m) oblivious equality tests,
    * then an oblivious shuffle of the candidates and an opening of the match
    * flags. Leaks the output size (as the paper's Sharemind baseline does,
    * §7.3). The output is laid out as [[joinOutput]]'s.
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

  /** The output of an equi-join, laid out by `Ir.joinColumns`. `lCols` and
    * `rCols` give each side's matched rows, row-aligned, for the column
    * indexes asked; the left side is asked first.
    */
  private[mpc] def joinOutput(lSchema: Seq[String], rSchema: Seq[String], lKeys: Seq[Int],
      rKeys: Seq[Int])(lCols: Seq[Int] => Seq[SharedCol],
      rCols: Seq[Int] => Seq[SharedCol]): SharedRelation = {
    val (lOut, rOut) = repro.core.Ir.joinColumns(lSchema.indices, rSchema.indices, lKeys, rKeys)
    val l = lCols(lOut)
    SharedRelation((lOut.map(lSchema) ++ rOut.map(rSchema)).toVector, (l ++ rCols(rOut)).toVector)
  }

  // --------------------------------------------------- oblivious indexing

  /** Oblivious indexing (select) per Laud [45]: given secret indexes into
    * `rel`, returns the rows at those positions without revealing which.
    * Cost O((n+m) log(n+m)) — this is what makes the hybrid join an
    * asymptotic improvement over the Cartesian join.
    * Simulated as its ideal functionality with the protocol's cost charged:
    * one flag multiply per cell in each of its ⌈log₂(n+m)⌉ rounds.
    */
  def select(e: MpcEngine, rel: SharedRelation, idxs: SharedCol): SharedRelation = {
    require(rel.validity.isEmpty, "select requires a compacted relation")
    val n = rel.size.toLong; val m = idxs.length.toLong
    val logNm = Log2.ceil(n + m)
    e.chargeIdeal(MpcEngine.Op.MulFlag, (n + m) * logNm * rel.width)
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
}
