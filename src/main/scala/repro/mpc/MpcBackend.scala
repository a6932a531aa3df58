package repro.mpc

import repro.core.{AggFn, AggSpec, ArithFn, CmpOp, Ir, Party}

import scala.collection.mutable.ArrayBuilder

/** Relation-level MPC backend: the API Conclave's executor programs against
  * (the role Sharemind / Obliv-C play in the paper, §6).
  *
  * Wraps an [[MpcEngine]] with input/output movement (`close` = inputToMPC,
  * `reveal` = revealTo), every relational operator, Conclave's hybrid and
  * public protocols (§5.3, Fig. 3), and — for garbled-circuit engines — the
  * memory model that reproduces Obliv-C's OOM behaviour. Each operator is
  * one method: its memory check, its kernel (or a bare-engine kernel of
  * [[Oblivious]]) and its leak record. Inherently sequential scans (the
  * group fold, distinct's seen-chain, the global folds) run element by
  * element over the shared arrays.
  *
  * An aggregation sorts, shuffles and compacts only its group and
  * aggregate columns, and a join shuffles, selects and gathers only its
  * keys and output columns. The joins and aggregations take `live`, the
  * output columns a consumer reads (all by default), and their last step
  * moves only those.
  *
  * It is the only recorder of [[ColumnLeak]]s and [[CardinalityLeak]]s, and
  * every value it opens is opened beside the record of what that discloses,
  * so tests can check that a plan leaks exactly what the paper authorizes
  * (§5.2, §5.3, Appendix A) and nothing else.
  */
final class MpcBackend(
    val engine: MpcEngine,
    val leakage: LeakageLog,
    val allParties: Set[Party],
) {
  import MpcBackend._

  def meter: CostMeter = engine.meter

  /** `out`, after recording that all parties learn its row count. */
  private def leakSize(relName: String)(out: SharedRelation): SharedRelation = {
    leakage.record(CardinalityLeak(relName, out.size.toLong, allParties))
    out
  }

  /** Secret-share a cleartext relation, given by column, into the MPC. The
    * row count becomes public (standard MPC input-length leakage, §3.2).
    */
  def close(relName: String, schema: Seq[String], cols: Seq[Array[Double]]): SharedRelation = {
    require(cols.length == schema.length, s"${cols.length} columns for schema $schema")
    val n = cols.headOption.map(_.length).getOrElse(0)
    leakage.record(CardinalityLeak(relName, n.toLong, allParties))
    engine.chargeRows(n.toLong)
    engine.checkRelationMem("close", n.toLong, GcOpWidth.Projection)
    SharedRelation(schema.toVector, cols.map(c => engine.input(Fixed.encodeColumn(c))).toVector)
  }

  /** [[close]] for a relation given by row. */
  def closeRows(relName: String, schema: Seq[String], rows: Seq[Seq[Double]]): SharedRelation =
    close(relName, schema, schema.indices.map(c => rows.map(_(c)).toArray))

  /** Reveal a relation to `to`. Invalid rows are compacted away first, with
    * no record of their count: the revealed rows disclose it anyway.
    */
  def reveal(relName: String, rel: SharedRelation, to: Set[Party]): Vector[Vector[Double]] = {
    leakage.record(RelationLeak(relName, to))
    val rows = compacted(rel)
    engine.chargeRows(rows.size.toLong)
    if (rows.size == 0) return Vector.empty
    val opened = engine.open(rows.cols) // one opening round
    Vector.tabulate(rows.size)(i => opened.map(c => Fixed.decode(c(i))).toVector)
  }

  def project(rel: SharedRelation, cols: Seq[String]): SharedRelation = {
    val idxs = rel.colIdxs(cols)
    engine.chargeRows(rel.size.toLong)
    engine.checkRelationMem("project", rel.size.toLong, GcOpWidth.Projection)
    SharedRelation(cols.toVector, idxs.map(rel.cols), rel.validity, rel.fresh)
  }

  /** Oblivious filter of column `col` against a public literal or another
    * column (size-hiding, order-preserving): ANDs the comparison's 0/1
    * flags into the validity column. Nothing is revealed.
    */
  def filter(rel: SharedRelation, col: String, cmp: CmpOp,
      rhs: Either[String, Double]): SharedRelation = {
    val a = rel.col(col)
    val b = rhs.fold(rel.col, lit => engine.constant(Fixed.encode(lit), rel.size))
    engine.checkRelationMem("filter", rel.size.toLong, GcOpWidth.Projection)
    val flags = cmp match {
      case CmpOp.Eq  => engine.eq(a, b)
      case CmpOp.Neq => engine.not(engine.eq(a, b))
      case CmpOp.Lt  => engine.lt(a, b)
      case CmpOp.Gt  => engine.lt(b, a)
      case CmpOp.Leq => engine.not(engine.lt(b, a))
      case CmpOp.Geq => engine.not(engine.lt(a, b))
    }
    engine.chargeRows(rel.size.toLong)
    rel.copy(validity = Some(rel.validity.fold(flags)(engine.and(_, flags))))
  }

  // ------------------------------------------------------------ compaction

  /** `rel` without its invalid rows. The rows are shuffled with their
    * validity flags, unless `rel` is fresh already ([[Oblivious.shuffle]]),
    * and the flags are opened in that order (one round), which discloses
    * only how many rows are kept. The kept rows are fresh: over a secret
    * uniform order, where the valid rows stand is independent of their
    * order among themselves. Callers record the count, or reveal the rows
    * themselves.
    */
  private def compacted(rel: SharedRelation): SharedRelation = rel.validity match {
    case None => rel
    case Some(v) =>
      val perm = Oblivious.shufflePermutation(engine, rel).getOrElse(Array.range(0, rel.size))
      val opened = engine.open(v.gather(perm))
      val kept = new ArrayBuilder.ofInt
      var t = 0
      while (t < perm.length) { if (opened(t) == 1L) kept += perm(t); t += 1 }
      val idx = kept.result()
      SharedRelation(rel.schema, rel.cols.map(_.gather(idx)), fresh = true)
  }

  /** Compact away invalid rows; reveals the surviving count to all parties. */
  def compact(relName: String, rel: SharedRelation): SharedRelation =
    if (rel.validity.isEmpty) rel else leakSize(relName)(compacted(rel))

  // ----------------------------------------------------------- aggregation

  /** `same(i)` = 1 iff row i equals row i-1 on every column of `cols`;
    * `same(0)` = 0.
    */
  private def continues(cols: Seq[SharedCol], n: Int): SharedCol = {
    val same = SharedCol.concat(Seq(engine.alloc(1), engine.constant(1L, n - 1)))
    val eqc = engine.alloc(n - 1)
    cols.foreach { c =>
      engine.eq(c, c, eqc, n - 1, ai = 1)
      engine.mulFlag(same, eqc, same, n - 1, ai = 1, oi = 1)
    }
    same
  }

  /** The start of an `fn` fold, which a row whose validity flag is 0 adds. */
  private def start(fn: AggFn): Long = fn match {
    case AggFn.Min => Fixed.Big
    case AggFn.Max => -Fixed.Big
    case _         => 0L
  }

  /** Each row's contribution to an `fn` fold over the `n` rows of `values`:
    * gated by the rows' 0/1 `valid` flags, or, over a compacted input with
    * none, a copy of `values` to fold in place (fixed-point ones for COUNT).
    */
  private def contribution(fn: AggFn, valid: Option[SharedCol], n: Int,
      values: => SharedCol): SharedCol = (fn, valid) match {
    case (AggFn.Count, None)    => engine.constant(Fixed.Scale, n)
    case (_, None)              => values.slice(0, n)
    case (AggFn.Count, Some(v)) => engine.mulPub(v, Fixed.Scale)
    case (AggFn.Sum, Some(v))   => engine.mulFlag(v, values)
    case (_, Some(v))           => engine.mux(v, values, engine.constant(start(fn), n))
  }

  /** One step of an `fn` fold: fold `x(xi)` into the accumulator `acc(ai)`
    * through the scratch cell `t(0)`. A 0/1 `gate` (null for none) lets the
    * step through only where `gate(gi)` is 1:
    *   - SUM and COUNT: `[t = gate·x]; acc += t`;
    *   - MIN and MAX: `t = lt(x, acc)` (`lt(acc, x)`), `[t *= gate]`,
    *     `acc = mux(t, x, acc)`.
    * The one step of both folds, [[foldRuns]] and [[globalAggregate]].
    */
  private def combine(fn: AggFn, x: SharedCol, xi: Int, acc: SharedCol, ai: Int,
      gate: SharedCol, gi: Int, t: SharedCol): Unit = fn match {
    case AggFn.Sum | AggFn.Count =>
      if (gate == null) engine.add(acc, x, acc, 1, ai = ai, bi = xi, oi = ai)
      else {
        engine.mulFlag(gate, x, t, 1, ai = gi, bi = xi)
        engine.add(acc, t, acc, 1, ai = ai, oi = ai)
      }
    case _ =>
      if (fn == AggFn.Min) engine.lt(x, acc, t, 1, ai = xi, bi = ai)
      else engine.lt(acc, x, t, 1, ai = ai, bi = xi)
      if (gate != null) engine.mulFlag(gate, t, t, 1, ai = gi)
      engine.mux(t, x, acc, acc, 1, ai = xi, bi = ai, oi = ai)
  }

  /** Jónsson's linear scan: fold each run of rows into its last row, where
    * `same(i)` says row i continues row i-1's run. Sequential by nature, so
    * it runs one element at a time over `agg`, in place.
    */
  private def foldRuns(fn: AggFn, same: SharedCol, agg: SharedCol): Unit = {
    val take = engine.alloc(1)
    var i = 1
    while (i < agg.length) { combine(fn, agg, i - 1, agg, i, same, i, take); i += 1 }
  }

  /** Grouped aggregation, Jónsson's and the hybrid: take the group columns
    * and the columns the outputs fold, `prepare` them, `order` them into
    * runs of equal keys, fold each output of `aggs` into its run's last row
    * (Jónsson's linear scan), and compact: shuffle, open the keep flags,
    * discard. The ordering, the run flags and the compaction run once for
    * every output. All parties learn the number of groups, the output size
    * (the paper's protocols do not pad, §7.4 comorbidity), 0 for an empty
    * input. Output schema: the `live` columns of group columns ++ the
    * outputs' names; no validity.
    */
  private def groupedAggregate(relName: String, rel: SharedRelation, group: Seq[String],
      aggs: Seq[AggSpec], live: String => Boolean, prepare: SharedRelation => SharedRelation)(
      order: SharedRelation => Grouped): SharedRelation = {
    require(group.nonEmpty, "use globalAggregate for group-less aggregation")
    val reads = rel.schema.filter(c => group.contains(c) || aggs.exists(_.aggCol.contains(c)))
    val in = prepare(rel.only(reads))
    val outSchema = group.toVector ++ aggs.map(_.out)
    val liveSchema = outSchema.filter(live)
    if (in.size == 0) return leakSize(relName)(SharedRelation(liveSchema, liveSchema.map(_ => engine.alloc(0))))
    val g = order(in)
    val n = g.rows.size
    val outs = aggs.map(a => contribution(a.fn, g.valid, n, g.rows.col(a.aggCol.get)))
    val same = g.runs()
    aggs.zip(outs).foreach { case (a, agg) => foldRuns(a.fn, same, agg) }
    val keep = engine.constant(1L, n)
    engine.not(same, keep, n - 1, ai = 1)
    g.valid.foreach(engine.mulFlag(keep, _, keep, n))
    leakSize(relName)(compacted(
      SharedRelation(outSchema, group.map(g.rows.col).toVector ++ outs, Some(keep)).only(liveSchema)))
  }

  /** Grouped aggregation per Jónsson et al. [39]: an oblivious sort by group
    * key orders the rows, and [[groupedAggregate]] does the rest.
    */
  def aggregate(
      relName: String,
      rel: SharedRelation,
      group: Seq[String],
      aggs: Seq[AggSpec],
      preSorted: Boolean = false,
      live: String => Boolean = _ => true,
  ): SharedRelation = {
    engine.checkRelationMem("aggregate", rel.size.toLong, GcOpWidth.Aggregation)
    groupedAggregate(relName, rel, group, aggs, live, identity) { in =>
      // The sorting network may be skipped when the input is already grouped
      // (sort elimination, §5.4) — but only if no validity column could
      // interleave invalid rows into a group run.
      val sorted =
        if (preSorted && in.validity.isEmpty) in
        else Oblivious.sortBy(engine, in, in.colIdxs(group).map(Oblivious.SortKey(_)))
      val n = sorted.size
      val valid = sorted.validity.getOrElse(engine.constant(1L, n))
      Grouped(sorted, Some(valid), () => {
        // Gated by row i's validity so an invalid row with an equal key can
        // never absorb (and then drop) a group's accumulated aggregate.
        val same = continues(group.map(sorted.col), n)
        engine.mulFlag(same, valid, same, n - 1, ai = 1, bi = 1, oi = 1)
        same
      })
    }
  }

  /** Group-less aggregation to a single row, one fold per output of
    * `aggs`; reveals nothing.
    */
  def globalAggregate(rel: SharedRelation, aggs: Seq[AggSpec]): SharedRelation = {
    engine.checkRelationMem("aggregate", rel.size.toLong, GcOpWidth.Aggregation)
    val n = rel.size
    engine.chargeRows(n.toLong)
    val valid = rel.validity.getOrElse(engine.constant(1L, n))
    val accs = aggs.map { a =>
      val xs = contribution(a.fn, Some(valid), n, rel.col(a.aggCol.get))
      val acc = engine.constant(start(a.fn), 1)
      val better = engine.alloc(1)
      var i = 0
      while (i < n) { combine(a.fn, xs, i, acc, 0, null, 0, better); i += 1 }
      acc
    }
    SharedRelation(aggs.map(_.out).toVector, accs.toVector)
  }

  /** Standard MPC join (Cartesian approach, §6); leaks the output size.
    * Its output has only the `live` columns.
    */
  def join(
      relName: String,
      left: SharedRelation,
      right: SharedRelation,
      lKeys: Seq[String],
      rKeys: Seq[String],
      live: String => Boolean = _ => true,
  ): SharedRelation = {
    engine.checkRelationMem("join", left.size.toLong + right.size.toLong, GcOpWidth.Join)
    leakSize(relName)(Oblivious.cartesianJoin(engine, left, right, left.colIdxs(lKeys),
      right.colIdxs(rKeys), live))
  }

  /** Oblivious duplicate elimination over all columns: marks all but the
    * first valid row of each run of equal rows invalid. Size-hiding (no
    * reveal). `preSorted` skips the O(n log^2 n) sorting network for a
    * linear scan — the optimization Conclave's sort-elimination pass enables
    * (paper §7.4, aspirin count).
    */
  def distinct(rel: SharedRelation, preSorted: Boolean): SharedRelation = {
    engine.checkRelationMem("distinct", rel.size.toLong, GcOpWidth.Aggregation)
    if (rel.size == 0) return rel
    val sorted =
      if (preSorted) rel
      else Oblivious.sortBy(engine, rel, rel.schema.indices.map(Oblivious.SortKey(_)))
    val n = sorted.size
    val valid = sorted.validity.getOrElse(engine.constant(1L, n))
    engine.chargeRows(n.toLong)
    val same = continues(sorted.cols, n)

    // seen(i): an earlier row of this key run was valid:
    // seen(i) = same(i) AND (seen(i-1) OR valid(i-1)).
    val seen = engine.alloc(n)
    val or = engine.alloc(1); val both = engine.alloc(1)
    var i = 1
    while (i < n) {
      engine.add(seen, valid, or, 1, ai = i - 1, bi = i - 1)
      engine.mulFlag(seen, valid, both, 1, ai = i - 1, bi = i - 1)
      engine.sub(or, both, or, 1)
      engine.mulFlag(same, or, seen, 1, ai = i, oi = i)
      i += 1
    }
    val newValid = valid.slice(0, n)
    engine.not(seen, seen, n - 1, ai = 1, oi = 1)
    engine.mulFlag(valid, seen, newValid, n - 1, ai = 1, bi = 1, oi = 1)
    sorted.copy(validity = Some(newValid), fresh = false)
  }

  def sort(rel: SharedRelation, keys: Seq[(String, Boolean)]): SharedRelation = {
    engine.checkRelationMem("sort", rel.size.toLong, GcOpWidth.Aggregation)
    Oblivious.sortBy(engine, rel, keys.map { case (c, asc) => Oblivious.SortKey(rel.colIdx(c), asc) })
  }

  /** First `k` rows, compacted. A `sorted` input comes straight from an
    * oblivious sort, which moves invalid rows last: its order is kept by
    * opening the validity flags of the k-prefix in place, a 1…1 0…0 pattern
    * that reveals only min(k, valid rows) — which the output reveals anyway.
    * Any other input is compacted first, which shuffles it.
    */
  def limit(relName: String, rel: SharedRelation, k: Int, sorted: Boolean): SharedRelation =
    rel.validity match {
      case Some(_) if sorted =>
        val prefix = rel.take(k)
        engine.chargeRows(prefix.size.toLong)
        val flags = engine.open(prefix.validity.get)
        val valid = flags.count(_ == 1L)
        require(flags.take(valid).forall(_ == 1L) && flags.drop(valid).forall(_ == 0L),
          "limit: a sorted input must carry its valid rows first")
        leakage.record(CardinalityLeak(relName, valid.toLong, allParties))
        prefix.take(valid).copy(validity = None)
      case _ =>
        val compacted = compact(relName, rel)
        engine.chargeRows(math.min(compacted.size, k).toLong)
        compacted.take(k)
    }

  def concat(rels: Seq[SharedRelation]): SharedRelation = {
    require(rels.nonEmpty, "concat of nothing")
    val schema = rels.head.schema
    require(rels.forall(_.schema == schema), s"concat schema mismatch: ${rels.map(_.schema)}")
    val validity =
      if (!rels.exists(_.validity.isDefined)) None
      else Some(SharedCol.concat(rels.map(r => r.validity.getOrElse(engine.constant(1L, r.size)))))
    SharedRelation(schema, schema.indices.map(c => SharedCol.concat(rels.map(_.cols(c)))).toVector,
      validity)
  }

  /** Row-wise arithmetic: `out = lhs fn rhs` where rhs is a column or a
    * public scalar. If `out` already exists it is replaced, else appended.
    */
  def arith(
      rel: SharedRelation,
      fn: ArithFn,
      outName: String,
      lhs: String,
      rhs: Either[String, Double],
  ): SharedRelation = {
    val l = rel.col(lhs)
    engine.chargeRows(rel.size.toLong)
    engine.checkRelationMem("arith", rel.size.toLong, GcOpWidth.Projection)
    def scalar(s: Double) = engine.constant(Fixed.encode(s), rel.size)
    val out = (fn, rhs) match {
      case (ArithFn.Add, Right(s)) => engine.addPub(l, Fixed.encode(s))
      case (ArithFn.Sub, Right(s)) => engine.addPub(l, -Fixed.encode(s))
      case (ArithFn.Mul, Right(s)) if s == math.rint(s) => engine.mulPub(l, s.toLong)
      case (ArithFn.Mul, Right(s)) => engine.mulFx(l, scalar(s))
      case (ArithFn.Div, Right(s)) => engine.divFx(l, scalar(s))
      case (ArithFn.Add, Left(c))  => engine.add(l, rel.col(c))
      case (ArithFn.Sub, Left(c))  => engine.sub(l, rel.col(c))
      case (ArithFn.Mul, Left(c))  => engine.mulFx(l, rel.col(c))
      case (ArithFn.Div, Left(c))  => engine.divFx(l, rel.col(c))
    }
    val existing = rel.schema.indexOf(outName)
    if (existing >= 0) rel.copy(cols = rel.cols.updated(existing, out))
    else SharedRelation(rel.schema :+ outName, rel.cols :+ out, rel.validity, rel.fresh)
  }

  /** Append a public constant column (used to key group-less join results). */
  def constCol(rel: SharedRelation, name: String, value: Double): SharedRelation = {
    engine.chargeRows(rel.size.toLong)
    SharedRelation(rel.schema :+ name, rel.cols :+ engine.constant(Fixed.encode(value), rel.size),
      rel.validity, rel.fresh)
  }

  // ------------------------------------------- hybrid and public protocols

  /** Record that the columns `names` of `relName` were revealed to `to`. */
  private def leakColumns(relName: String, names: Seq[String], to: Set[Party]): Unit =
    names.foreach(c => leakage.record(ColumnLeak(relName, c, to)))

  /** The leak labels of a join's key columns: `left:k` and `right:k`. */
  private def joinKeyLabels(lKeys: Seq[String], rKeys: Seq[String]): Seq[String] =
    lKeys.map("left:" + _) ++ rKeys.map("right:" + _)

  /** The inputs of a join with output columns `live`, each with only the
    * columns the join reads (its keys and its live output columns), then
    * compacted.
    */
  private def joinInputs(relName: String, left: SharedRelation, right: SharedRelation,
      lKeys: Seq[String], rKeys: Seq[String], live: String => Boolean): (SharedRelation, SharedRelation) = {
    val (lReads, rReads) = Ir.joinReads(left.schema, right.schema, lKeys, rKeys, live)
    (compact(relName + ":left", left.only(lReads)), compact(relName + ":right", right.only(rReads)))
  }

  /** Open the key columns `keys` of `rel` in one round (none for an empty
    * relation), as fixed-point columns; the caller logs to whom they leak.
    */
  private def openKeys(rel: SharedRelation, keys: Seq[Int]): Seq[Array[Long]] = {
    engine.chargeRows(rel.size.toLong)
    if (rel.size == 0) keys.map(_ => Array.emptyLongArray)
    else engine.open(keys.map(rel.cols))
  }

  /** Hybrid join (Fig. 3): oblivious shuffles, key columns revealed to the
    * STP, cleartext join at the STP, then oblivious indexing (Laud [45]) to
    * reconstruct the joined rows under MPC. O((n+m) log(n+m)) non-linear
    * MPC operations instead of the Cartesian join's O(n·m). The STP sees
    * only the shuffled keys; all parties learn the output cardinality.
    * Each side shuffles its keys and its `live` output columns, and selects
    * and reshuffles only the latter. A side that is fresh, as it comes or
    * from its compaction, is not shuffled again ([[Oblivious.shuffle]]); the
    * caller hands over a fresh relation only to one side of one join. The
    * output is fresh. If a side has no rows, the output is empty: every
    * party knows that side's size already, so the other side is neither
    * shuffled nor opened to the STP.
    */
  def hybridJoin(relName: String, left: SharedRelation, right: SharedRelation,
      lKeys: Seq[String], rKeys: Seq[String], stp: Party,
      live: String => Boolean = _ => true): SharedRelation = {
    require(lKeys.length == rKeys.length && lKeys.nonEmpty, "bad join keys")
    val (l, r) = joinInputs(relName, left, right, lKeys, rKeys, live)
    val lk = l.colIdxs(lKeys); val rk = r.colIdxs(rKeys)
    if (l.size == 0 || r.size == 0) {
      def none(cs: Seq[Int]) = cs.map(_ => engine.alloc(0))
      return leakSize(relName)(Oblivious.joinOutput(l.schema, r.schema, lk, rk, live)(none, none))
    }

    // 1. Obliviously shuffle both inputs so revealed keys are unlinkable to
    //    input positions; a fresh side is unlinkable already.
    val lS = Oblivious.shuffle(engine, l)
    val rS = Oblivious.shuffle(engine, r)

    // 2-4. Reveal the key columns to the STP, which pairs the row indexes
    //      of equal keys in the clear, by right row, then left row.
    leakColumns(relName, joinKeyLabels(lKeys, rKeys), Set(stp))
    val lKeyCols = openKeys(lS, lk).toArray
    val rKeyCols = openKeys(rS, rk).toArray
    val (rj, li) = keyPairs(rKeyCols, keyOrder(rKeyCols), Array.range(0, rS.size), lKeyCols)
    leakage.record(CardinalityLeak(relName, li.length.toLong, allParties))

    // 5. The STP secret-shares the two index relations back into the MPC.
    val lIdx = engine.input(longs(li))
    val rIdx = engine.input(longs(rj))
    engine.chargeRows(li.length.toLong)

    // 6. Oblivious indexing recovers the joined rows' output columns under
    //    MPC; a side with none selects nothing.
    def select(rel: SharedRelation, idx: SharedCol)(cs: Seq[Int]): Seq[SharedCol] =
      if (cs.isEmpty) Seq.empty else Oblivious.select(engine, rel.only(cs.map(rel.schema)), idx).cols

    // 7. Concatenate column-wise and reshuffle: the selected rows are in
    //    the STP's pair order, and the output is fresh.
    Oblivious.shuffle(engine, Oblivious.joinOutput(l.schema, r.schema, lk, rk, live)(
      select(lS, lIdx), select(rS, rIdx)))
  }

  /** Public join over shared inputs: both key columns are public, so the
    * keys are revealed to all parties, the join is computed in the clear,
    * and the joined result is assembled from the shared rows by *public*
    * indexes — no oblivious shuffle or indexing at all (paper §5.3). The
    * output rows are ordered by join key, which downstream sort elimination
    * exploits (§7.4). Only the `live` output columns are gathered.
    */
  def publicJoin(relName: String, left: SharedRelation, right: SharedRelation,
      lKeys: Seq[String], rKeys: Seq[String], live: String => Boolean = _ => true): SharedRelation = {
    val (l, r) = joinInputs(relName, left, right, lKeys, rKeys, live)
    val lk = l.colIdxs(lKeys); val rk = r.colIdxs(rKeys)
    val (li, rj) = publicJoinPairs(relName, lKeys, rKeys, openKeys(l, lk), openKeys(r, rk))
    engine.chargeRows(li.length.toLong)
    Oblivious.joinOutput(l.schema, r.schema, lk, rk, live)(
      _.map(l.cols(_).gather(li)), _.map(r.cols(_).gather(rj)))
  }

  /** The public step of a public join: the key columns `lKeys` and `rKeys`
    * (fixed-point values `lVals` and `rVals`, one array per key column) are
    * revealed to every party, which pairs the matching rows in the clear;
    * all parties learn the number of pairs. Pairs are ordered by key, then
    * left index, then right index: key order is free in the clear and lets
    * MPC consumers skip oblivious sorts on the key. Called by [[publicJoin]]
    * with opened keys, and, over cleartext inputs, directly with the
    * parties' encoded keys before [[publicJoinClose]].
    */
  def publicJoinPairs(relName: String, lKeys: Seq[String], rKeys: Seq[String],
      lVals: Seq[Array[Long]], rVals: Seq[Array[Long]]): (Array[Int], Array[Int]) = {
    require(lKeys.length == rKeys.length && lKeys.nonEmpty, "bad join keys")
    require(lVals.length == lKeys.length && rVals.length == rKeys.length, "one value array per key")
    leakColumns(relName, joinKeyLabels(lKeys, rKeys), allParties)
    val l = lVals.toArray
    val order = keyOrder(l)
    val pairs = keyPairs(l, order, order, rVals.toArray)
    leakage.record(CardinalityLeak(relName, pairs._1.length.toLong, allParties))
    pairs
  }

  /** Public join over cleartext inputs, second step: each side secret-shares
    * *only its rows in `pairs`*, in pair order, and only its `live` output
    * columns, so unmatched rows never enter MPC — this is what lets
    * Conclave + slicing send just the overlapping patient IDs into MPC
    * (§7.4). A side with no live output column shares nothing. Columns are
    * given per side as in [[close]]; the output is laid out as
    * [[publicJoin]]'s.
    */
  def publicJoinClose(relName: String, lSchema: Seq[String], rSchema: Seq[String],
      lKeys: Seq[String], rKeys: Seq[String], lCols: Seq[Array[Double]], rCols: Seq[Array[Double]],
      pairs: (Array[Int], Array[Int]), live: String => Boolean = _ => true): SharedRelation = {
    val (li, rj) = pairs
    def matched(cols: Seq[Array[Double]], idx: Array[Int], names: Seq[String], side: String)(
        cs: Seq[Int]): Seq[SharedCol] =
      if (cs.isEmpty) Seq.empty
      else close(s"$relName:$side", cs.map(names), cs.map(c => gather(cols(c), idx))).cols
    Oblivious.joinOutput(lSchema, rSchema, lKeys.map(lSchema.indexOf), rKeys.map(rSchema.indexOf),
      live)(matched(lCols, li, lSchema, "left"), matched(rCols, rj, rSchema, "right"))
  }

  /** Hybrid aggregation (§5.3): Jónsson's aggregation with the STP's
    * ordering in place of the sorting network. The input is compacted, then
    * obliviously shuffled, unless it is fresh by then, as a compaction's or
    * a hybrid join's output is ([[Oblivious.shuffle]]); its group-by columns
    * are revealed to the STP, which sorts them in the clear, publishes the
    * ordering and secret-shares the equality flags of adjacent rows;
    * [[groupedAggregate]] does the rest. Replaces the O(n log^2 n) sorting
    * network with an O(n log n) shuffle and avoids all oblivious comparisons
    * (for sum/count).
    */
  def hybridAggregate(relName: String, rel: SharedRelation, group: Seq[String],
      aggs: Seq[AggSpec], stp: Party, live: String => Boolean = _ => true): SharedRelation =
    groupedAggregate(relName, rel, group, aggs, live, compact(relName + ":in", _)) { in =>
      // 1. Oblivious shuffle (skipped if `in` is fresh), then reveal the
      //    (shuffled) group-by columns to the STP.
      val shuffled = Oblivious.shuffle(engine, in)
      leakColumns(relName, group, Set(stp))
      val keys = openKeys(shuffled, in.colIdxs(group)).toArray

      // 2-4. STP: enumerate, sort by key, compute equality flags, publish the
      //      ordering (public) and secret-share the flags.
      val order = keyOrder(keys)
      val n = order.length
      val eqFlags = new Array[Long](n)
      var pos = 1
      while (pos < n) {
        if (compareKeys(keys, order(pos), keys, order(pos - 1)) == 0) eqFlags(pos) = 1L
        pos += 1
      }
      val same = engine.input(eqFlags)

      // 5-6. Parties reorder the shuffled relation by the public ordering (no
      //      oblivious cost beyond I/O).
      engine.chargeRows(2L * n)
      Grouped(shuffled.gather(order), None, () => same)
    }
}

object MpcBackend {

  /** An aggregation's input in group order: its `rows`, their 0/1 `valid`
    * flags (none once compacted), and `runs`, which gives the run flags
    * `same(i)` = 1 iff row i continues row i-1's group. `runs` is called
    * after the outputs' contributions are taken.
    */
  private final case class Grouped(rows: SharedRelation, valid: Option[SharedCol],
      runs: () => SharedCol)

  // ------------------------------------------- the STP's cleartext steps

  /** Row `i` of key columns `a` against row `j` of key columns `b`, compared
    * lexicographically as signed longs.
    */
  private def compareKeys(a: Array[Array[Long]], i: Int, b: Array[Array[Long]], j: Int): Int = {
    var c = 0
    var k = 0
    while (c == 0 && k < a.length) { c = java.lang.Long.compare(a(k)(i), b(k)(j)); k += 1 }
    c
  }

  /** The row indexes of key columns `keys` in key order, ties in row order:
    * a bottom-up merge sort of the indexes, stable as it takes the left run
    * first on equal keys. The STP's one ordering, in the clear.
    */
  private def keyOrder(keys: Array[Array[Long]]): Array[Int] = {
    val n = keys.headOption.map(_.length).getOrElse(0)
    var src = Array.range(0, n)
    var dst = new Array[Int](n)
    var width = 1
    while (width < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + width, n); val hi = math.min(lo + 2 * width, n)
        var i = lo; var j = mid; var t = lo
        while (t < hi) {
          if (j == hi || (i < mid && compareKeys(keys, src(i), keys, src(j)) <= 0)) { dst(t) = src(i); i += 1 }
          else { dst(t) = src(j); j += 1 }
          t += 1
        }
        lo = hi
      }
      val done = src; src = dst; dst = done
      width *= 2
    }
    src
  }

  /** The pairs `(i, j)` of rows of key columns `a` and `b` with equal keys:
    * the rows `i` in the sequence `aRows`, and for each, its matches `j` in
    * row order. `aOrder` is [[keyOrder]] of `a`.
    */
  private def keyPairs(a: Array[Array[Long]], aOrder: Array[Int], aRows: Array[Int],
      b: Array[Array[Long]]): (Array[Int], Array[Int]) = {
    // One merge of the two key orders: row i of `a` matches the rows
    // bOrder(from(i) until until(i)). Rescanning a run for each duplicate
    // in `a` costs no more than the pairs it yields.
    val bOrder = keyOrder(b)
    val from = new Array[Int](aOrder.length); val until = new Array[Int](aOrder.length)
    var p = 0
    var t = 0
    while (t < aOrder.length) {
      val i = aOrder(t)
      while (p < bOrder.length && compareKeys(b, bOrder(p), a, i) < 0) p += 1
      var q = p
      while (q < bOrder.length && compareKeys(b, bOrder(q), a, i) == 0) q += 1
      from(i) = p; until(i) = q
      t += 1
    }
    var total = 0L
    t = 0
    while (t < aRows.length) { total += until(aRows(t)) - from(aRows(t)); t += 1 }
    require(total <= Int.MaxValue, s"$total join pairs")
    val ai = new Array[Int](total.toInt); val bj = new Array[Int](total.toInt)
    var k = 0
    t = 0
    while (t < aRows.length) {
      val i = aRows(t)
      var q = from(i)
      while (q < until(i)) { ai(k) = i; bj(k) = bOrder(q); k += 1; q += 1 }
      t += 1
    }
    (ai, bj)
  }

  /** The row indexes `xs` as ring elements, for the STP to share. */
  private def longs(xs: Array[Int]): Array[Long] = {
    val out = new Array[Long](xs.length)
    var i = 0
    while (i < xs.length) { out(i) = xs(i).toLong; i += 1 }
    out
  }

  /** `xs(idx(t))` for every t. */
  private def gather(xs: Array[Double], idx: Array[Int]): Array[Double] = {
    val out = new Array[Double](idx.length)
    var t = 0
    while (t < idx.length) { out(t) = xs(idx(t)); t += 1 }
    out
  }

  // ------------------------------------------------------------ backends

  /** A Sharemind-like 3-party secret-sharing backend. */
  def sharemind(allParties: Set[Party], seed: Long = 42L): MpcBackend = {
    val meter = new CostMeter(CostParams.Sharemind)
    new MpcBackend(new SecretSharingEngine(seed, meter), new LeakageLog, allParties)
  }

  /** An Obliv-C-like 2-party garbled-circuit backend. */
  def oblivc(allParties: Set[Party]): MpcBackend =
    new MpcBackend(new GarbledCircuitEngine(new CostMeter(CostParams.OblivC)), new LeakageLog, allParties)

  /** An ObliVM-like garbled-circuit backend (SMCQL's backend). */
  def oblivm(allParties: Set[Party]): MpcBackend =
    new MpcBackend(new GarbledCircuitEngine(new CostMeter(CostParams.ObliVM)), new LeakageLog, allParties)
}
