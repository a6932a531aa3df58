package repro.mpc

import repro.core.{AggFn, ArithFn, CmpOp, Party}

/** Relation-level MPC backend: the API Conclave's executor programs against
  * (the role Sharemind / Obliv-C play in the paper, §6).
  *
  * Wraps an [[MpcEngine]] with input/output movement (`close` = inputToMPC,
  * `reveal` = revealTo), the oblivious relational operators, the hybrid
  * protocols, leakage logging, and — for garbled-circuit engines — the
  * memory model that reproduces Obliv-C's OOM behaviour.
  */
final class MpcBackend(
    val engine: MpcEngine,
    val leakage: LeakageLog,
    val allParties: Set[Party],
) {
  def meter: CostMeter = engine.meter

  /** Secret-share a cleartext relation, given by column, into the MPC. The
    * row count becomes public (standard MPC input-length leakage, §3.2).
    */
  def close(relName: String, schema: Seq[String], cols: Seq[Array[Double]]): SharedRelation = {
    require(cols.length == schema.length, s"${cols.length} columns for schema $schema")
    val n = cols.headOption.map(_.length).getOrElse(0)
    leakage.record(CardinalityLeak(relName, n.toLong, allParties))
    engine.chargeRows(n.toLong, schema.length.toLong)
    engine.checkRelationMem("close", n.toLong, GcOpWidth.Projection)
    SharedRelation(schema.toVector, cols.map(c => engine.input(c.map(Fixed.encode))).toVector)
  }

  /** [[close]] for a relation given by row. */
  def closeRows(relName: String, schema: Seq[String], rows: Seq[Seq[Double]]): SharedRelation =
    close(relName, schema, schema.indices.map(c => rows.map(_(c)).toArray))

  /** Reveal a relation to `to` (invalid rows compacted away first). */
  def reveal(relName: String, rel: SharedRelation, to: Set[Party]): Vector[Vector[Double]] = {
    leakage.record(RelationLeak(relName, to))
    Oblivious.reveal(engine, rel)
  }

  def project(rel: SharedRelation, cols: Seq[String]): SharedRelation = {
    val idxs = rel.colIdxs(cols)
    engine.chargeRows(rel.size.toLong, cols.length.toLong)
    engine.checkRelationMem("project", rel.size.toLong, GcOpWidth.Projection)
    SharedRelation(cols.toVector, idxs.map(rel.cols), rel.validity)
  }

  private def cmpFlag(a: SharedCol, cmp: CmpOp, b: SharedCol): SharedCol = cmp match {
    case CmpOp.Eq  => engine.eq(a, b)
    case CmpOp.Neq => engine.not(engine.eq(a, b))
    case CmpOp.Lt  => engine.lt(a, b)
    case CmpOp.Gt  => engine.lt(b, a)
    case CmpOp.Leq => engine.not(engine.lt(b, a))
    case CmpOp.Geq => engine.not(engine.lt(a, b))
  }

  /** Oblivious filter against a public literal (size-hiding, order-preserving). */
  def filterLit(rel: SharedRelation, col: String, cmp: CmpOp, lit: Double): SharedRelation = {
    val c = rel.colIdx(col)
    val litV = engine.constant(Fixed.encode(lit), rel.size)
    engine.checkRelationMem("filter", rel.size.toLong, GcOpWidth.Projection)
    Oblivious.filter(engine, rel, cmpFlag(rel.cols(c), cmp, litV))
  }

  /** Oblivious filter comparing two columns. */
  def filterCol(rel: SharedRelation, colA: String, cmp: CmpOp, colB: String): SharedRelation = {
    val a = rel.colIdx(colA); val b = rel.colIdx(colB)
    engine.checkRelationMem("filter", rel.size.toLong, GcOpWidth.Projection)
    Oblivious.filter(engine, rel, cmpFlag(rel.cols(a), cmp, rel.cols(b)))
  }

  /** Grouped oblivious aggregation; reveals the group count to all parties. */
  def aggregate(
      relName: String,
      rel: SharedRelation,
      group: Seq[String],
      aggCol: Option[String],
      fn: AggFn,
      outName: String,
      preSorted: Boolean = false,
  ): SharedRelation = {
    engine.checkRelationMem("aggregate", rel.size.toLong, GcOpWidth.Aggregation)
    val out = Oblivious.aggregate(engine, rel, rel.colIdxs(group), aggCol.map(rel.colIdx), fn,
      outName, preSorted)
    leakage.record(CardinalityLeak(relName, out.size.toLong, allParties))
    out
  }

  /** Group-less aggregation to a single row; reveals nothing. */
  def globalAggregate(
      rel: SharedRelation,
      aggCol: Option[String],
      fn: AggFn,
      outName: String,
  ): SharedRelation = {
    engine.checkRelationMem("aggregate", rel.size.toLong, GcOpWidth.Aggregation)
    Oblivious.globalAggregate(engine, rel, aggCol.map(rel.colIdx), fn, outName)
  }

  /** Standard MPC join (Cartesian approach, §6); leaks the output size. */
  def join(
      relName: String,
      left: SharedRelation,
      right: SharedRelation,
      lKeys: Seq[String],
      rKeys: Seq[String],
  ): SharedRelation = {
    engine.checkRelationMem("join", left.size.toLong + right.size.toLong, GcOpWidth.Join)
    val out = Oblivious.cartesianJoin(engine, left, right, left.colIdxs(lKeys), right.colIdxs(rKeys))
    leakage.record(CardinalityLeak(relName, out.size.toLong, allParties))
    out
  }

  /** Oblivious distinct over all columns (size-hiding). `preSorted` skips the
    * sorting network — enabled by Conclave's sort-elimination pass.
    */
  def distinct(rel: SharedRelation, preSorted: Boolean): SharedRelation = {
    engine.checkRelationMem("distinct", rel.size.toLong, GcOpWidth.Aggregation)
    Oblivious.distinct(engine, rel, rel.schema.indices, preSorted)
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
        engine.chargeRows(prefix.size.toLong, rel.width.toLong)
        val flags = engine.open(prefix.validity.get)
        val valid = flags.count(_ == 1L)
        require(flags.take(valid).forall(_ == 1L) && flags.drop(valid).forall(_ == 0L),
          "limit: a sorted input must carry its valid rows first")
        leakage.record(CardinalityLeak(relName, valid.toLong, allParties))
        prefix.take(valid).copy(validity = None)
      case _ =>
        val compacted = compact(relName, rel)
        engine.chargeRows(math.min(compacted.size, k).toLong, compacted.width.toLong)
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
    engine.chargeRows(rel.size.toLong, 1L)
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
    else SharedRelation(rel.schema :+ outName, rel.cols :+ out, rel.validity)
  }

  /** Append a public constant column (used to key group-less join results). */
  def constCol(rel: SharedRelation, name: String, value: Double): SharedRelation = {
    engine.chargeRows(rel.size.toLong, 1L)
    SharedRelation(rel.schema :+ name, rel.cols :+ engine.constant(Fixed.encode(value), rel.size),
      rel.validity)
  }

  /** Compact away invalid rows; reveals the surviving count to all parties. */
  def compact(relName: String, rel: SharedRelation): SharedRelation =
    if (rel.validity.isEmpty) rel
    else {
      val out = Oblivious.compact(engine, rel)
      leakage.record(CardinalityLeak(relName, out.size.toLong, allParties))
      out
    }

  // ------------------------------------------------------------ hybrid ops

  def hybridJoin(relName: String, left: SharedRelation, right: SharedRelation,
      lKeys: Seq[String], rKeys: Seq[String], stp: Party): SharedRelation =
    Protocols.hybridJoin(engine, leakage, relName,
      compact(relName + ":left", left), compact(relName + ":right", right),
      left.colIdxs(lKeys), right.colIdxs(rKeys), stp, allParties)

  def publicJoin(relName: String, left: SharedRelation, right: SharedRelation,
      lKeys: Seq[String], rKeys: Seq[String], host: Party): SharedRelation =
    Protocols.publicJoin(engine, leakage, relName,
      compact(relName + ":left", left), compact(relName + ":right", right),
      left.colIdxs(lKeys), right.colIdxs(rKeys), host, allParties)

  def hybridAggregate(relName: String, rel: SharedRelation, group: Seq[String],
      aggCol: Option[String], fn: AggFn, outName: String, stp: Party): SharedRelation = {
    val compacted = compact(relName + ":in", rel)
    Protocols.hybridAggregate(engine, leakage, relName, compacted,
      compacted.colIdxs(group), aggCol.map(compacted.colIdx), fn, outName, stp, allParties)
  }
}

object MpcBackend {
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
