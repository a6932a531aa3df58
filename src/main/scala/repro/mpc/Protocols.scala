package repro.mpc

import repro.core.{AggFn, Party}

/** Conclave's hybrid MPC–cleartext protocols (paper §5.3, Fig. 3).
  *
  * Each protocol outsources the expensive core of an operator to a
  * selectively-trusted party (STP), which sees *only* the authorized key /
  * group-by columns (after an oblivious shuffle, so values cannot be linked
  * to input positions), while every other column stays secret-shared. All
  * parties additionally learn input/output cardinalities. Every reveal is
  * recorded in the [[LeakageLog]] so tests can verify exactly this leakage
  * occurs and no more.
  */
object Protocols {

  /** Hybrid join (Fig. 3): oblivious shuffles, key columns revealed to the
    * STP, cleartext join at the STP, then oblivious indexing (Laud [45]) to
    * reconstruct the joined rows under MPC. O((n+m) log(n+m)) non-linear
    * MPC operations instead of the Cartesian join's O(n·m).
    */
  def hybridJoin(
      e: MpcEngine,
      leakage: LeakageLog,
      relName: String,
      left: SharedRelation,
      right: SharedRelation,
      lKeys: Seq[Int],
      rKeys: Seq[Int],
      stp: Party,
      allParties: Set[Party],
  ): SharedRelation = {
    require(left.validity.isEmpty && right.validity.isEmpty,
      "hybrid join requires compacted inputs")
    require(lKeys.length == rKeys.length && lKeys.nonEmpty, "bad join keys")

    // 1. Obliviously shuffle both inputs so revealed keys are unlinkable to
    //    input positions.
    val lS = Oblivious.shuffle(e, left)
    val rS = Oblivious.shuffle(e, right)

    // 2-4. Project the key columns, reveal them to the STP; the STP
    //      enumerates rows and joins in the clear.
    val lKeyRows = openKeys(e, leakage, relName, lS, lKeys, "left", Set(stp))
    val rKeyRows = openKeys(e, leakage, relName, rS, rKeys, "right", Set(stp))

    // Cleartext hash join at the STP over (key, rowIndex) pairs.
    val byKey = lKeyRows.indices.groupBy(lKeyRows)
    val pairs = for {
      (k, j) <- rKeyRows.zipWithIndex
      i <- byKey.getOrElse(k, Seq.empty)
    } yield (i, j)

    // All parties learn the join's output cardinality.
    leakage.record(CardinalityLeak(relName, pairs.length.toLong, allParties))

    // 5. The STP secret-shares the two index relations back into the MPC.
    val lIdx = e.input(pairs.map(_._1.toLong).toArray)
    val rIdx = e.input(pairs.map(_._2.toLong).toArray)
    e.chargeRows(pairs.length.toLong, 2L)

    // 6. Oblivious indexing recovers the joined rows under MPC.
    val lRows = Oblivious.select(e, lS, lIdx)
    val rRows = Oblivious.select(e, rS, rIdx)

    // 7. Concatenate column-wise and reshuffle.
    val lRest = left.schema.indices.filterNot(lKeys.contains)
    val rRest = right.schema.indices.filterNot(rKeys.contains)
    val outSchema =
      lKeys.map(left.schema).toVector ++ lRest.map(left.schema) ++ rRest.map(right.schema)
    val joined = SharedRelation(outSchema,
      (lKeys ++ lRest).map(lRows.cols).toVector ++ rRest.map(rRows.cols))
    Oblivious.shuffle(e, joined)
  }

  /** Reveal the key columns `keys` of `rel` to `to` in one round, logging each
    * as a column leak; one key vector per row.
    */
  private def openKeys(e: MpcEngine, leakage: LeakageLog, relName: String, rel: SharedRelation,
      keys: Seq[Int], side: String, to: Set[Party]): IndexedSeq[Vector[Long]] = {
    keys.foreach(k => leakage.record(ColumnLeak(relName, s"$side:${rel.schema(k)}", to)))
    e.chargeRows(rel.size.toLong, keys.length.toLong)
    if (rel.size == 0) return IndexedSeq.empty
    val opened = e.open(keys.map(rel.cols))
    IndexedSeq.tabulate(rel.size)(i => opened.map(_(i)).toVector)
  }

  /** Public join: both key columns are public, so the keys are revealed to
    * all parties, one (randomly chosen) host computes the join in the clear,
    * and the joined result is assembled from the shared rows by *public*
    * indexes — no oblivious shuffle or indexing at all (paper §5.3).
    * The output rows are ordered by join key, which downstream sort
    * elimination exploits (§7.4).
    */
  def publicJoin(
      e: MpcEngine,
      leakage: LeakageLog,
      relName: String,
      left: SharedRelation,
      right: SharedRelation,
      lKeys: Seq[Int],
      rKeys: Seq[Int],
      host: Party,
      allParties: Set[Party],
  ): SharedRelation = {
    require(left.validity.isEmpty && right.validity.isEmpty,
      "public join requires compacted inputs")
    val lKeyRows = openKeys(e, leakage, relName, left, lKeys, "left", allParties)
    val rKeyRows = openKeys(e, leakage, relName, right, rKeys, "right", allParties)

    import scala.math.Ordering.Implicits.seqOrdering
    val (lIdx, rIdx) = publicJoinPairs(lKeyRows, rKeyRows)
    leakage.record(CardinalityLeak(relName, lIdx.length.toLong, allParties))

    val lRest = left.schema.indices.filterNot(lKeys.contains)
    val rRest = right.schema.indices.filterNot(rKeys.contains)
    val outSchema =
      lKeys.map(left.schema).toVector ++ lRest.map(left.schema) ++ rRest.map(right.schema)
    e.chargeRows(lIdx.length.toLong, outSchema.length.toLong)
    SharedRelation(outSchema,
      (lKeys ++ lRest).map(left.cols(_).gather(lIdx)).toVector ++ rRest.map(right.cols(_).gather(rIdx)))
  }

  /** The matching (left index, right index) pairs of an equi-join on public
    * keys, ordered by key, then left index, then right index. The host
    * returns matches in key order (free in the clear) so MPC consumers can
    * skip oblivious sorts on the key. Shared by [[publicJoin]] (fixed-point
    * keys) and the executor's public join over cleartext inputs (doubles).
    */
  def publicJoinPairs[K: Ordering](left: IndexedSeq[K], right: IndexedSeq[K]): (Array[Int], Array[Int]) = {
    val byKey = right.indices.groupBy(right)
    val pairs = left.indices.sortBy(left) // stable: equal keys keep left order
      .flatMap(i => byKey.getOrElse(left(i), IndexedSeq.empty).map(j => (i, j)))
    (pairs.map(_._1).toArray, pairs.map(_._2).toArray)
  }

  /** Hybrid aggregation (§5.3): oblivious shuffle, group-by column revealed
    * to the STP, cleartext sort + equality flags at the STP, public reorder,
    * then a linear oblivious accumulation scan. Replaces the O(n log^2 n)
    * sorting network with an O(n log n) shuffle and avoids all oblivious
    * comparisons (for sum/count).
    */
  def hybridAggregate(
      e: MpcEngine,
      leakage: LeakageLog,
      relName: String,
      rel: SharedRelation,
      groupIdxs: Seq[Int],
      aggIdx: Option[Int],
      fn: AggFn,
      outName: String,
      stp: Party,
      allParties: Set[Party],
  ): SharedRelation = {
    require(rel.validity.isEmpty, "hybrid aggregation requires a compacted input")
    require(groupIdxs.nonEmpty, "hybrid aggregation needs group-by columns")
    val outSchema = groupIdxs.map(rel.schema).toVector :+ outName
    if (rel.size == 0) return SharedRelation(outSchema, outSchema.map(_ => e.alloc(0)))

    // 1. Oblivious shuffle, then reveal the (shuffled) group-by column(s)
    //    to the STP.
    val shuffled = Oblivious.shuffle(e, rel)
    groupIdxs.foreach(g => leakage.record(ColumnLeak(relName, rel.schema(g), Set(stp))))
    e.chargeRows(shuffled.size.toLong, groupIdxs.length.toLong)
    val opened = e.open(groupIdxs.map(shuffled.cols))
    val keys = IndexedSeq.tabulate(shuffled.size)(i => opened.map(_(i)).toVector)

    // 2-4. STP: enumerate, sort by key, compute equality flags, publish the
    //      ordering (public) and secret-share the flags.
    import scala.math.Ordering.Implicits.seqOrdering
    val order = keys.indices.sortBy(keys).toArray
    val n = order.length
    val eqFlags = Array.tabulate(n)(pos => if (pos > 0 && keys(order(pos)) == keys(order(pos - 1))) 1L else 0L)
    val same = e.input(eqFlags) // STP secret-shares the equality flags
    e.chargeRows(n.toLong, 1L)

    // 5-6. Parties reorder the shuffled relation by the public ordering.
    val sorted = Oblivious.applyPublicPermutation(e, shuffled, order)

    // 7. Linear oblivious accumulation into each group's last row.
    val agg = fn match {
      case AggFn.Count => e.constant(Fixed.Scale, n)
      case _           => sorted.cols(aggIdx.get).slice(0, n) // folded in place
    }
    Oblivious.foldRuns(e, fn, same, agg)
    val keep = Oblivious.lastOfRun(e, same)

    // 8. Shuffle, open keep flags, discard: all parties learn the number of
    //    groups (the output size).
    val out = Oblivious.shuffleKeep(e, outSchema, groupIdxs.map(sorted.cols).toVector :+ agg, keep)
    leakage.record(CardinalityLeak(relName, out.size.toLong, allParties))
    out
  }
}
