package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, NumericType, StructField, StructType}
import repro.mpc._

import scala.jdk.CollectionConverters._

/** Execution metrics for one compiled query run.
  *
  * MPC steps execute in an in-process simulator, so their *real* time is
  * meaningless; the reported query runtime substitutes the backend cost
  * model's simulated seconds for the simulator's real seconds, while
  * cleartext (Spark) work is measured as real wall-clock.
  */
final case class ExecMetrics(
    wallSeconds: Double,
    mpcRealSeconds: Double,
    mpcModeledSeconds: Double,
    closedRows: Long,
    cost: CostSnapshot,
) {
  /** Modeled end-to-end runtime: real cleartext time + modeled MPC time. */
  def reportedSeconds: Double = math.max(0.0, wallSeconds - mpcRealSeconds) + mpcModeledSeconds
}

final case class ExecResult(
    outputs: Map[String, DataFrame],
    metrics: ExecMetrics,
    leakage: LeakageLog,
)

/** Interprets a compiled plan: cleartext stages run as per-party Spark
  * DataFrame pipelines; MPC stages run on the [[MpcBackend]]. Data crosses
  * the frontier through `close` (collect + secret-share, logged as a
  * cardinality leak) and `reveal`.
  *
  * At each crossing into MPC, every party's cleartext input is collected at
  * once, as the parties' own clusters would run it; the closes then run on
  * the calling thread, in a fixed order, after every collect has finished.
  * Revealed rows stay on the driver as local DataFrames.
  *
  * MPC values carry only their plan node's live columns ([[Ir.liveColumns]]):
  * a close shares only those, and an MPC operator reads only the columns
  * it computes on and moves on only the live ones.
  */
final class Executor(
    spark: SparkSession,
    backend: MpcBackend,
    /** Safety cap on rows crossing into the MPC simulator. */
    maxCloseRows: Long = 5_000_000L,
) {
  import Executor._

  private var mpcRealNs: Long = 0L
  private var closedRows: Long = 0L
  /** Each cleartext value closed into MPC this run, by node id. */
  private val closed = scala.collection.mutable.HashMap.empty[Int, SharedRelation]
  /** The live columns of this run's plan, by node id. */
  private var live: Map[Int, Seq[String]] = Map.empty

  private def timedMpc[A](body: => A): A = {
    val t0 = System.nanoTime()
    try body
    finally mpcRealNs += System.nanoTime() - t0
  }

  def run(plan: Compiler.Plan, inputs: Map[String, DataFrame]): ExecResult = {
    // Metrics and leakage describe this run only, also on a reused executor.
    mpcRealNs = 0L; closedRows = 0L; closed.clear(); live = plan.live
    backend.meter.reset(); backend.leakage.clear()
    val t0 = System.nanoTime()
    val cache = scala.collection.mutable.HashMap.empty[Int, RelValue]
    val outputs = scala.collection.mutable.LinkedHashMap.empty[String, DataFrame]

    plan.dag.topo.foreach { n =>
      val childVals = n.children.map(c => cache(c.id)).toSeq
      n.kind match {
        case OpKind.Output(name, recipients) =>
          outputs(name) = output(name, recipients, childVals.head)
        case _ => cache(n.id) = eval2(n, inputs, childVals)
      }
    }
    val wall = (System.nanoTime() - t0) / 1e9
    ExecResult(
      outputs.toMap,
      ExecMetrics(wall, mpcRealNs / 1e9, backend.meter.modeledSeconds, closedRows,
        backend.meter.snapshot),
      backend.leakage.snapshot,
    )
  }

  // ----------------------------------------------------------- clear helpers

  private def inputDf(inputs: Map[String, DataFrame], relName: String, cols: Seq[InCol]): DataFrame = {
    val df = inputs.getOrElse(relName, sys.error(s"no input DataFrame provided for '$relName'"))
    // A cast to double would turn a non-numeric value into NULL.
    for (c <- cols; f <- df.schema.fields.find(_.name == c.name))
      require(f.dataType.isInstanceOf[NumericType],
        s"input '$relName': column '${c.name}' has non-numeric type ${f.dataType.simpleString}")
    df.select(cols.map(c => col(c.name).cast(DoubleType).as(c.name)): _*)
  }

  private def cmpColumn(c: String, cmp: CmpOp, rhs: Either[String, Double]) = {
    val l = col(c)
    val r = rhs.fold(col, lit(_))
    cmp match {
      case CmpOp.Eq  => l === r
      case CmpOp.Neq => l =!= r
      case CmpOp.Lt  => l < r
      case CmpOp.Leq => l <= r
      case CmpOp.Gt  => l > r
      case CmpOp.Geq => l >= r
    }
  }

  private def clearOp(n: Node, dfs: Seq[DataFrame]): DataFrame = n.kind match {
    case OpKind.Project(cols) => dfs.head.select(cols.map(col): _*)
    case OpKind.Filter(c, cmp, rhs) => dfs.head.where(cmpColumn(c, cmp, rhs))
    case OpKind.Agg(group, aggs, _) =>
      lazy val partial = isPartial(n)
      val exprs = aggs.map(a => (a.fn match {
        // Over no rows Spark's sum is NULL; a split's partial gives 0, the
        // identity of the upper SUM.
        case AggFn.Sum if partial => coalesce(sum(col(a.aggCol.get)), lit(0.0))
        case AggFn.Sum   => sum(col(a.aggCol.get))
        case AggFn.Count => count(lit(1))
        case AggFn.Min   => min(col(a.aggCol.get))
        case AggFn.Max   => max(col(a.aggCol.get))
      }).cast(DoubleType).as(a.out))
      if (group.isEmpty) dfs.head.agg(exprs.head, exprs.tail: _*)
      else dfs.head.groupBy(group.map(col): _*).agg(exprs.head, exprs.tail: _*)
    case OpKind.Join(lk, rk) =>
      val l = dfs(0).alias("l"); val r = dfs(1).alias("r")
      val cond = lk.zip(rk).map { case (a, b) => col(s"l.$a") === col(s"r.$b") }.reduce(_ && _)
      val (lOut, rOut) = Ir.joinColumns(dfs(0).columns.toSeq, dfs(1).columns.toSeq, lk, rk)
      l.join(r, cond, "inner").select(
        lOut.map(c => col(s"l.$c").as(c)) ++ rOut.map(c => col(s"r.$c").as(c)): _*)
    case OpKind.Arith(fn, out, lhs, rhs) =>
      val r = rhs.fold(col, lit(_))
      val expr = fn match {
        case ArithFn.Add => col(lhs) + r
        case ArithFn.Sub => col(lhs) - r
        case ArithFn.Mul => col(lhs) * r
        case ArithFn.Div => col(lhs) / r
      }
      dfs.head.withColumn(out, expr.cast(DoubleType))
    case OpKind.ConstCol(name, v) => dfs.head.withColumn(name, lit(v).cast(DoubleType))
    case OpKind.Sort(c, asc)      => dfs.head.orderBy(if (asc) col(c).asc else col(c).desc)
    case OpKind.Limit(k)          => dfs.head.limit(k)
    case OpKind.Distinct(_)       => dfs.head.distinct()
    case OpKind.Concat            => dfs.reduce(_ unionAll _)
    case other                    => sys.error(s"clearOp cannot evaluate ${other.label}")
  }

  // ------------------------------------------------------------ mpc helpers

  /** Count rows crossing into the MPC simulator against the safety cap. */
  private def countClosed(rows: Long): Unit = {
    closedRows += rows
    require(closedRows <= maxCloseRows,
      s"safety cap: $closedRows rows crossed into the MPC simulator (max $maxCloseRows)")
  }

  /** Collect the live columns of every cleartext partition of the given
    * children in one batch: one fresh thread per partition, so the parties'
    * Spark jobs run at the same time. Fresh threads, unlike a pool's,
    * inherit the calling thread's Spark local properties, so their jobs are
    * attributed as its own. Once every thread has finished, the first
    * failure in batch order is rethrown, and then every cell is checked. Per
    * child, the result holds its partitions' columns in party order, each
    * named `#<id>@<party>`; a shared child has none.
    */
  private def collectClear(children: Seq[(Node, RelValue)]): Seq[Seq[(String, IndexedSeq[Array[Double]])]] = {
    val parts = children.map {
      case (c, ClearRel(byParty)) => byParty.toSeq.sortBy(_._1).map { case (p, df) => (c, p, df) }
      case (_, SecureRel(_))      => Seq.empty
    }
    val batch = parts.flatten
    val rows = new Array[Array[Row]](batch.length)
    val errors = new Array[Throwable](batch.length)
    val threads = batch.zipWithIndex.map { case ((c, p, partDf), i) =>
      val cols = live(c.id)
      val liveDf = if (cols == c.schema) partDf else partDf.select(cols.map(col): _*)
      val t = new Thread(() =>
        try rows(i) = liveDf.collect()
        catch { case e: Throwable => errors(i) = e },
        s"conclave-collect-${p.name}")
      t.setDaemon(true)
      t.start()
      t
    }
    threads.foreach(_.join())
    errors.find(_ != null).foreach(e => throw e)
    val it = rows.iterator
    parts.map(_.map { case (c, p, _) =>
      val name = s"#${c.id}@${p.name}"
      name -> columns(name, live(c.id), it.next())
    })
  }

  /** The children of MPC operator `n` as shared relations. A cleartext
    * child is closed once per run, however many operators read it, with its
    * live columns: its partitions are collected in one batch with the other
    * children's, then closed on this thread in child order and party order,
    * so dealer draws, share names and the leakage sequence do not depend on
    * which collect finished first.
    */
  private def asSecure(n: Node, childVals: Seq[RelValue]): Seq[SharedRelation] = {
    val toClose = n.children.zip(childVals).toSeq
      .filter { case (c, v) => v.isInstanceOf[ClearRel] && !closed.contains(c.id) }
      .distinctBy(_._1.id)
    val collected = collectClear(toClose)
    countClosed(collected.flatten.map(_._2.headOption.fold(0L)(_.length.toLong)).sum)
    toClose.zip(collected).foreach { case ((c, _), byParty) =>
      val shared = byParty.map { case (name, cols) => timedMpc(backend.close(name, live(c.id), cols)) }
      closed(c.id) = if (shared.length == 1) shared.head else timedMpc(backend.concat(shared))
    }
    n.children.zip(childVals).map {
      case (_, SecureRel(rel)) => rel
      case (c, ClearRel(_))    => closed(c.id)
    }.toSeq
  }

  /** Revealed rows as a driver-local DataFrame (a local relation: reading it
    * starts no Spark job).
    */
  private def localDf(schema: Seq[String], rows: Seq[Seq[Double]]): DataFrame =
    spark.createDataFrame(rows.map(Row.fromSeq).asJava,
      StructType(schema.map(StructField(_, DoubleType, nullable = false))))

  /** Cleartext view of a child value at `party` (revealing MPC data if the
    * compiler lifted this consumer above the frontier).
    */
  private def asClearAt(party: Party, v: RelValue, child: Node): DataFrame = v match {
    case ClearRel(parts) if parts.contains(party) && parts.size == 1 => parts(party)
    case ClearRel(parts) =>
      // A pushed-up (reversible) operator consuming a still-partitioned
      // relation: its input is revealed to the evaluating recipient anyway,
      // so the parties send their partitions in the clear.
      backend.leakage.record(RelationLeak(s"#${child.id}", Set(party)))
      parts.values.reduce(_ unionAll _)
    case SecureRel(rel) =>
      val rows = timedMpc(backend.reveal(s"#${child.id}", rel, Set(party)))
      localDf(rel.schema, rows)
  }

  // -------------------------------------------------------------- evaluate

  private def eval2(n: Node, inputs: Map[String, DataFrame], childVals: Seq[RelValue]): RelValue =
    n.kind match {
      case OpKind.Input(relName, cols, owner) =>
        ClearRel(Map(owner -> inputDf(inputs, relName, cols)))

      case _ if !n.isMpc =>
        // Cleartext operator at its owner (or at the recipient, post-reveal).
        val at = n.owner.getOrElse(sys.error(s"cleartext node without owner: $n"))
        val dfs = n.children.zip(childVals).map { case (c, v) => asClearAt(at, v, c) }
        ClearRel(Map(at -> clearOp(n, dfs.toSeq)))

      case OpKind.Concat if childVals.forall(_.isInstanceOf[ClearRel]) =>
        // Partitioned concat over still-cleartext partitions: defer the
        // secret-sharing until an MPC consumer actually needs it, so public
        // joins can reveal keys straight from local data and close only the
        // matching rows (§5.3 / §7.4).
        val merged = scala.collection.mutable.LinkedHashMap.empty[Party, DataFrame]
        childVals.map(_.asInstanceOf[ClearRel]).foreach(_.parts.foreach { case (p, partDf) =>
          merged(p) = merged.get(p).map(_ unionAll partDf).getOrElse(partDf)
        })
        ClearRel(merged.toMap)

      case OpKind.PublicJoin(lk, rk) if childVals.forall(_.isInstanceOf[ClearRel]) =>
        SecureRel(publicJoinFromClear(n, lk, rk, childVals))

      case _ =>
        val shared = asSecure(n, childVals)
        SecureRel(timedMpc(mpcOp(backend, n, shared, live(n.id))))
    }

  /** The query output `name`, revealed to its recipients: MPC data through
    * the backend, which records the reveal, and cleartext partitions sent by
    * their parties in the clear, recorded here. A cleartext output is
    * materialised inside the timed window; revealed rows are already on the
    * driver.
    */
  private def output(name: String, recipients: Set[Party], v: RelValue): DataFrame = v match {
    case ClearRel(parts) =>
      backend.leakage.record(RelationLeak(name, recipients))
      val out = parts.toSeq.sortBy(_._1).map(_._2).reduce(_ unionAll _)
      out.cache().count()
      out
    case SecureRel(rel) =>
      localDf(rel.schema, timedMpc(backend.reveal(name, rel, recipients)))
  }

  /** Public join over still-cleartext inputs: the backend pairs the rows on
    * their public keys, then closes *only the matched rows* of the live
    * output columns. Every party's partition of both sides is collected in
    * one batch (a partitioned concat defers here), and the safety cap is
    * checked before any row is shared.
    */
  private def publicJoinFromClear(n: Node, lk: Seq[String], rk: Seq[String],
      childVals: Seq[RelValue]): SharedRelation = {
    val Seq((lSchema, lCols), (rSchema, rCols)) =
      n.children.zip(collectClear(n.children.zip(childVals).toSeq)).map { case (c, byParty) =>
        live(c.id) -> live(c.id).indices.map(i => Array.concat(byParty.map(_._2(i)): _*))
      }.toSeq
    def keys(schema: Seq[String], cols: IndexedSeq[Array[Double]], names: Seq[String]) =
      names.map(k => Fixed.encodeColumn(cols(schema.indexOf(k))))
    val name = s"#${n.id}"
    val pairs = backend.publicJoinPairs(name, lk, rk, keys(lSchema, lCols, lk), keys(rSchema, rCols, rk))
    countClosed(2L * pairs._1.length)
    timedMpc(backend.publicJoinClose(name, lSchema, rSchema, lk, rk, lCols, rCols, pairs,
      live(n.id).contains))
  }
}

object Executor {

  /** Rows of `relName` collected for MPC, as double columns. Every cell
    * must have a fixed-point encoding: MPC values have no NULL, and a NaN,
    * infinite or over-2^45 cell is rejected here, with its column and
    * relation, rather than read as a number or failing without context.
    * The one check of a cell entering MPC, for the executor's closes and for
    * the shared slices of the hand-sliced SMCQL aspirin baseline.
    */
  def columns(relName: String, schema: Seq[String], rows: Array[Row]): IndexedSeq[Array[Double]] =
    schema.indices.map { c =>
      val out = new Array[Double](rows.length)
      var i = 0
      while (i < rows.length) {
        val r = rows(i)
        require(!r.isNullAt(c), s"NULL in column '${schema(c)}' of $relName cannot enter MPC")
        out(i) = r.getDouble(c)
        require(Fixed.encodable(out(i)),
          s"${out(i)} in column '${schema(c)}' of $relName cannot enter MPC (fixed-point values are finite, |x| <= 2^45)")
        i += 1
      }
      out
    }

  /** `n` is a local partial of a split group-less aggregation (`PushDown`):
    * it feeds only concats, each of which feeds only the split's upper half
    * under MPC, which sums a SUM's partials.
    */
  private def isPartial(n: Node): Boolean = {
    def upper(u: Node) = u.isMpc && (u.kind match {
      case OpKind.Agg(Seq(), _, true) => true
      case _                          => false
    })
    n.parents.nonEmpty && n.parents.forall(c =>
      c.kind == OpKind.Concat && c.parents.nonEmpty && c.parents.forall(upper))
  }

  /** Evaluate MPC operator `n` over its `shared` inputs (in child order) on
    * `backend`: the one mapping from plan operators to backend operations.
    * Leakage is recorded under the name `#<node id>`. The operator gets
    * only the columns it reads of each input (one, for its row count, if it
    * reads none), and returns only the `live` columns of its output: the
    * joins and aggregations move only those in their last step, and the
    * parties drop the others' shares.
    */
  def mpcOp(backend: MpcBackend, n: Node, shared: Seq[SharedRelation],
      live: Seq[String]): SharedRelation = {
    val name = s"#${n.id}"
    val keep: String => Boolean = live.contains
    val in = shared.zip(Ir.reads(n.kind, live, shared.map(_.schema))).map { case (rel, cols) =>
      rel.only(if (cols.isEmpty) rel.schema.take(1) else cols)
    }
    val out = n.kind match {
      case OpKind.Concat              => backend.concat(in)
      case OpKind.Project(cols)       => backend.project(in.head, cols.filter(keep))
      case OpKind.Filter(c, cmp, rhs) => backend.filter(in.head, c, cmp, rhs)
      case OpKind.Agg(group, aggs, _) =>
        if (group.isEmpty) backend.globalAggregate(in.head, aggs)
        else backend.aggregate(name, in.head, group, aggs, n.preSorted, keep)
      case OpKind.HybridAgg(group, aggs, stp) =>
        backend.hybridAggregate(name, in.head, group, aggs, stp, keep)
      case OpKind.Join(lk, rk)       => backend.join(name, in(0), in(1), lk, rk, keep)
      case OpKind.HybridJoin(lk, rk, stp) =>
        backend.hybridJoin(name, in(0), in(1), lk, rk, stp, keep)
      case OpKind.PublicJoin(lk, rk) => backend.publicJoin(name, in(0), in(1), lk, rk, keep)
      case OpKind.Arith(fn, out, lhs, rhs) => backend.arith(in.head, fn, out, lhs, rhs)
      case OpKind.ConstCol(cn, v)    => backend.constCol(in.head, cn, v)
      case OpKind.Sort(c, asc)       => backend.sort(in.head, Seq((c, asc)))
      case OpKind.Limit(k)           =>
        backend.limit(name, in.head, k, sorted = n.isSortedLimit)
      case OpKind.Distinct(_)        => backend.distinct(in.head, n.preSorted)
      case other                     => sys.error(s"MPC executor cannot evaluate ${other.label}")
    }
    out.only(live)
  }

  private sealed trait RelValue
  private final case class ClearRel(parts: Map[Party, DataFrame]) extends RelValue
  private final case class SecureRel(rel: SharedRelation) extends RelValue
}
