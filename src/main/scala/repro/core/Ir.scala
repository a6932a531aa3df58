package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Comparison operators in query predicates. */
sealed trait CmpOp
object CmpOp {
  case object Eq extends CmpOp
  case object Neq extends CmpOp
  case object Lt extends CmpOp
  case object Leq extends CmpOp
  case object Gt extends CmpOp
  case object Geq extends CmpOp
}

/** Aggregation functions. */
sealed trait AggFn
object AggFn {
  case object Sum extends AggFn
  case object Count extends AggFn
  case object Min extends AggFn
  case object Max extends AggFn
}

/** One output of an aggregation: `fn` over `aggCol` (none for COUNT(*)),
  * named `out`.
  */
final case class AggSpec(fn: AggFn, aggCol: Option[String], out: String)

/** Row-wise arithmetic functions. */
sealed trait ArithFn
object ArithFn {
  case object Add extends ArithFn
  case object Sub extends ArithFn
  case object Mul extends ArithFn
  case object Div extends ArithFn
}

/** An input-relation column definition with its optional trust annotation
  * (paper §4.3). `trust` lists parties authorized to see the column in the
  * clear; `public` marks the column readable by every party.
  */
final case class InCol(name: String, trust: Set[Party] = Set.empty, public: Boolean = false)

/** Relational operator payloads. Operators reference columns by name only;
  * graph structure lives in [[Node]].
  */
sealed trait OpKind { def label: String }
object OpKind {
  /** The join family: the MPC join and its hybrid and public rewrites
    * (§5.3). They share the schema and trust rules and differ only in how
    * they run.
    */
  sealed trait JoinKind extends OpKind {
    def lKeys: Seq[String]
    def rKeys: Seq[String]
    protected def keys: String = s"${lKeys.mkString(",")}=${rKeys.mkString(",")}"
  }

  /** The aggregation family: the MPC aggregation and its hybrid rewrite.
    * One aggregation groups once and computes every output in `aggs`; its
    * schema is the group columns, then the outputs in order.
    */
  sealed trait AggKind extends OpKind {
    def group: Seq[String]
    def aggs: Seq[AggSpec]
    /** The columns its outputs fold. */
    def aggCols: Seq[String] = aggs.flatMap(_.aggCol)
    protected def spec: String =
      s"${aggs.map(a => s"${a.fn} ${a.aggCol.getOrElse("*")}").mkString(", ")} " +
        s"by ${group.mkString(",")} as ${aggs.map(_.out).mkString(",")}"
  }

  final case class Input(relName: String, cols: Seq[InCol], owner: Party) extends OpKind {
    def label = s"input:$relName@$owner"
  }
  final case class Output(relName: String, recipients: Set[Party]) extends OpKind {
    def label = s"output:$relName->${recipients.toSeq.sorted.mkString(",")}"
  }
  case object Concat extends OpKind { def label = "concat" }
  final case class Project(cols: Seq[String]) extends OpKind {
    def label = s"project(${cols.mkString(",")})"
  }
  final case class Filter(col: String, cmp: CmpOp, rhs: Either[String, Double]) extends OpKind {
    def label = s"filter($col $cmp ${rhs.fold(identity, _.toString)})"
  }
  /** `secondary` marks the upper half of a split aggregation so the
    * push-down pass does not split it again.
    */
  final case class Agg(group: Seq[String], aggs: Seq[AggSpec], secondary: Boolean = false)
      extends AggKind {
    def label = s"agg($spec)"
  }
  final case class Join(lKeys: Seq[String], rKeys: Seq[String]) extends JoinKind {
    def label = s"join($keys)"
  }
  final case class Arith(fn: ArithFn, out: String, lhs: String, rhs: Either[String, Double])
      extends OpKind {
    def label = s"arith($out = $lhs $fn ${rhs.fold(identity, _.toString)})"
  }
  final case class ConstCol(name: String, value: Double) extends OpKind {
    def label = s"const($name=$value)"
  }
  final case class Sort(col: String, ascending: Boolean = true) extends OpKind {
    def label = s"sort($col ${if (ascending) "asc" else "desc"})"
  }
  final case class Limit(n: Int) extends OpKind { def label = s"limit($n)" }
  final case class Distinct(secondary: Boolean = false) extends OpKind { def label = "distinct" }

  // Rewrite-introduced hybrid operators (paper §5.3).
  final case class HybridJoin(lKeys: Seq[String], rKeys: Seq[String], stp: Party) extends JoinKind {
    def label = s"hybridJoin($keys stp=$stp)"
  }
  final case class PublicJoin(lKeys: Seq[String], rKeys: Seq[String]) extends JoinKind {
    def label = s"publicJoin($keys)"
  }
  final case class HybridAgg(group: Seq[String], aggs: Seq[AggSpec], stp: Party) extends AggKind {
    def label = s"hybridAgg($spec stp=$stp)"
  }
}

/** A node of the operator DAG.
  *
  * The graph is mutable — Conclave's compilation is a sequence of annotation
  * and rewrite passes over one shared graph (the original system does the
  * same). Analysis results (`isMpc`, `owner`, `trust`, `sortedBy`, …) are
  * stored on the node and recomputed by their passes.
  */
final class Node private[core] (val id: Int, var kind: OpKind) {
  val children = ArrayBuffer.empty[Node] // inputs, in operand order
  val parents = ArrayBuffer.empty[Node]  // consumers

  /** Must this operator run under MPC? (Set by ownership / push passes.) */
  var isMpc: Boolean = true

  /** Party able to compute this relation locally from its own data, if any.
    * For operators lifted above the frontier by push-up, the recipient that
    * evaluates them in the clear after the reveal.
    */
  var owner: Option[Party] = None

  /** Per-column trust sets (paper §5.1, second pass). */
  var trust: Map[String, Set[Party]] = Map.empty

  /** Column the relation's rows are known to be ordered by, if any (§5.4). */
  var sortedBy: Option[(String, Boolean)] = None

  /** Set by sort elimination: the operator may skip its oblivious sort. */
  var preSorted: Boolean = false

  /** A limit right after a sort: it takes the sorted prefix in place and so
    * keeps the order. Any other limit compacts its input, which shuffles.
    */
  def isSortedLimit: Boolean =
    kind.isInstanceOf[OpKind.Limit] && children.head.kind.isInstanceOf[OpKind.Sort]

  def schema: Seq[String] = Ir.schemaOf(kind, children.map(_.schema).toSeq)

  override def toString: String = s"#$id ${kind.label}${if (isMpc) " [mpc]" else ""}"
}

object Ir {
  /** Output schema of `kind` given its children's schemas. */
  def schemaOf(kind: OpKind, childSchemas: Seq[Seq[String]]): Seq[String] = {
    lazy val in = childSchemas.head
    def need(op: String, cols: Seq[String], schema: Seq[String] = in): Unit =
      cols.foreach(c => require(schema.contains(c), s"$op no column $c"))
    kind match {
      case OpKind.Input(_, cols, _) => cols.map(_.name)
      case OpKind.Concat =>
        require(childSchemas.nonEmpty && childSchemas.forall(_ == in),
          s"concat schema mismatch: $childSchemas")
        in
      case OpKind.Project(cols)       => need("project:", cols); cols
      case OpKind.Filter(col, _, rhs) => need("filter:", col +: rhs.left.toSeq); in
      case a: OpKind.AggKind =>
        require(a.aggs.nonEmpty, "agg: no output")
        need("agg:", a.group ++ a.aggCols)
        a.group ++ a.aggs.map(_.out)
      case j: OpKind.JoinKind =>
        require(childSchemas.length == 2, "join needs two inputs")
        val Seq(l, r) = childSchemas
        need("join: left has", j.lKeys, l)
        need("join: right has", j.rKeys, r)
        require(j.lKeys.length == j.rKeys.length && j.lKeys.nonEmpty, "join key arity mismatch")
        val (lOut, rOut) = joinColumns(l, r, j.lKeys, j.rKeys)
        lOut ++ rOut
      case OpKind.Arith(_, out, lhs, rhs) =>
        need("arith:", lhs +: rhs.left.toSeq)
        if (in.contains(out)) in else in :+ out
      case OpKind.ConstCol(name, _) =>
        require(!in.contains(name), s"const: column $name exists")
        in :+ name
      case OpKind.Sort(col, _) => need("sort:", Seq(col)); in
      case _: OpKind.Output | _: OpKind.Limit | _: OpKind.Distinct => in
    }
  }

  /** The output columns of an equi-join of `l` and `r` on `lKeys` = `rKeys`:
    * from the left, its keys and then the rest of it; from the right, all
    * but its keys, which equal the left ones. The one statement of the
    * layout, for column names (plans, Spark) and column indexes (MPC).
    */
  def joinColumns[A](l: Seq[A], r: Seq[A], lKeys: Seq[A], rKeys: Seq[A]): (Seq[A], Seq[A]) =
    (lKeys ++ l.filterNot(lKeys.contains), r.filterNot(rKeys.contains))

  /** The columns an equi-join of `l` and `r` reads from each side, in its
    * schema order, when only the output columns `keep` are read: the side's
    * keys and its kept output columns.
    */
  def joinReads(l: Seq[String], r: Seq[String], lKeys: Seq[String], rKeys: Seq[String],
      keep: String => Boolean): (Seq[String], Seq[String]) = {
    val (lOut, rOut) = joinColumns(l, r, lKeys, rKeys)
    def side(s: Seq[String], keys: Seq[String], out: Seq[String]) =
      s.filter(c => keys.contains(c) || (out.contains(c) && keep(c)))
    (side(l, lKeys, lOut), side(r, rKeys, rOut))
  }

  /** The columns `kind` reads from each child, in the child's schema order,
    * when its consumers read only the columns `live` of its output. A
    * distinct compares whole rows and an output keeps every column; every
    * other operator reads the columns it computes on and those it passes on
    * to be read. An operator that would read none of a child's columns (a
    * group-less COUNT(*) needs only its row count) reads its first column,
    * which carries the row count: the one statement of that rule.
    */
  def reads(kind: OpKind, live: Seq[String], childSchemas: Seq[Seq[String]]): Seq[Seq[String]] = {
    lazy val in = childSchemas.head
    def of(cols: Seq[String]) = Seq(in.filter(cols.contains))
    val cols = kind match {
      case _: OpKind.Input                          => Seq.empty
      case _: OpKind.Output | _: OpKind.Distinct    => childSchemas
      case OpKind.Concat                            => childSchemas.map(_.filter(live.contains))
      case _: OpKind.Project | _: OpKind.Limit      => of(live)
      case OpKind.Filter(col, _, rhs)               => of(live ++ (col +: rhs.left.toSeq))
      case a: OpKind.AggKind                        => of(a.group ++ a.aggCols)
      case j: OpKind.JoinKind =>
        val (l, r) = joinReads(childSchemas(0), childSchemas(1), j.lKeys, j.rKeys, live.contains)
        Seq(l, r)
      case OpKind.Arith(_, out, lhs, rhs) => of(live.filterNot(_ == out) ++ (lhs +: rhs.left.toSeq))
      case OpKind.ConstCol(name, _)       => of(live.filterNot(_ == name))
      case OpKind.Sort(col, _)            => of(live :+ col)
    }
    cols.zip(childSchemas).map { case (read, schema) => if (read.isEmpty) schema.take(1) else read }
  }

  /** Each node's live columns, by node id: the columns of its output that a
    * consumer reads, in schema order, by one walk from the outputs down. A
    * node no consumer reads keeps all its columns (an output does).
    */
  def liveColumns(dag: Dag): Map[Int, Seq[String]] = {
    val read = mutable.HashMap.empty[Int, Set[String]].withDefaultValue(Set.empty)
    val schemas = mutable.HashMap.empty[Int, Seq[String]]
    val order = dag.topo
    order.foreach(n => schemas(n.id) = schemaOf(n.kind, n.children.map(c => schemas(c.id)).toSeq))
    order.reverseIterator.map { n =>
      val schema = schemas(n.id)
      val live = if (n.parents.isEmpty) schema else schema.filter(read(n.id))
      n.children.zip(reads(n.kind, live, n.children.map(c => schemas(c.id)).toSeq))
        .foreach { case (c, cols) => read(c.id) ++= cols }
      n.id -> live
    }.toMap
  }
}

/** The operator DAG plus structural edit helpers used by rewrite passes. */
final class Dag {
  private val _nodes = ArrayBuffer.empty[Node]
  private var nextId = 0

  def nodes: Seq[Node] = _nodes.toSeq

  def newNode(kind: OpKind, children: Seq[Node] = Seq.empty): Node = {
    val n = new Node(nextId, kind)
    nextId += 1
    children.foreach { c => n.children += c; c.parents += n }
    _nodes += n
    n
  }

  def inputs: Seq[Node] = nodes.filter(_.kind.isInstanceOf[OpKind.Input])
  def outputs: Seq[Node] = nodes.filter(_.kind.isInstanceOf[OpKind.Output])

  /** All parties participating in the query (owners and recipients). */
  def parties: Set[Party] =
    inputs.map(_.kind.asInstanceOf[OpKind.Input].owner).toSet ++
      outputs.flatMap(_.kind.asInstanceOf[OpKind.Output].recipients)

  /** Nodes in topological order (children before parents). */
  def topo: Seq[Node] = {
    val seen = mutable.HashSet.empty[Int]
    val order = ArrayBuffer.empty[Node]
    def visit(n: Node): Unit =
      if (seen.add(n.id)) { n.children.foreach(visit); order += n }
    outputs.foreach(visit)
    // Also reach any dangling roots (no output yet, e.g. during DSL building).
    nodes.filter(_.parents.isEmpty).foreach(visit)
    order.toSeq
  }

  /** Replace node `old` with `nu` in all of old's parents, detaching `old`. */
  def replaceWith(old: Node, nu: Node): Unit = {
    old.parents.toSeq.foreach { p =>
      p.children.mapInPlace(c => if (c eq old) nu else c)
      nu.parents += p
    }
    old.parents.clear()
    detachIfOrphan(old)
  }

  /** Remove a unary node from the graph, wiring its child to its parents. */
  def splice(n: Node): Unit = {
    require(n.children.length == 1, s"cannot splice non-unary $n")
    val child = n.children.head
    child.parents -= n
    n.parents.toSeq.foreach { p =>
      p.children.mapInPlace(c => if (c eq n) child else c)
      child.parents += p
    }
    n.parents.clear(); n.children.clear()
    _nodes -= n
  }

  /** Drop a node (and recursively its now-orphaned children) from the graph. */
  def detachIfOrphan(n: Node): Unit =
    if (n.parents.isEmpty && !n.kind.isInstanceOf[OpKind.Output]) {
      n.children.toSeq.foreach { c => c.parents -= n; detachIfOrphan(c) }
      n.children.clear()
      _nodes -= n
    }

  /** Pretty-print the DAG, topologically, with per-node annotations. */
  def describe: String =
    topo.map { n =>
      val loc = if (n.isMpc) "MPC " else s"local@${n.owner.map(_.name).getOrElse("?")}"
      val deps = if (n.children.isEmpty) "" else " <- " + n.children.map("#" + _.id).mkString(",")
      f"#${n.id}%-3d $loc%-12s ${n.kind.label}$deps"
    }.mkString("\n")
}
