package repro.core

/** LINQ-style query frontend (paper §4.2, Listings 1–2).
  *
  * Analysts build a relational DAG as if all data lived in one database; the
  * only distribution-awareness is the `at` owner of each input relation, the
  * `to` recipients of each output, and optional per-column trust annotations.
  *
  * {{{
  * val dag = new Dag
  * val q = new Dsl(dag)
  * import q._
  * val demo = table("demographics", pA, col("ssn"), col("zip"))
  * val s1 = table("scores1", pB, col("ssn", trust = Set(pA)), col("score"))
  * val joined = demo.join(concat(s1, s2), Seq("ssn"), Seq("ssn"))
  * joined.aggregate(Seq("zip"), AggFn.Sum, Some("score"), "total").writeTo("out", pA)
  * }}}
  */
final class Dsl(val dag: Dag) {

  def col(name: String, trust: Set[Party] = Set.empty): InCol = InCol(name, trust)

  /** A column every party may see in the clear. */
  def publicCol(name: String): InCol = InCol(name, public = true)

  /** Declare an input relation stored at `owner`. */
  def table(name: String, owner: Party, cols: InCol*): Rel =
    new Rel(dag.newNode(OpKind.Input(name, cols, owner)))

  /** Duplicate-preserving set union across parties' relations. */
  def concat(rels: Rel*): Rel =
    new Rel(dag.newNode(OpKind.Concat, rels.map(_.node)))

  /** Fluent wrapper around a DAG node. */
  final class Rel(val node: Node) {
    private def mk(kind: OpKind, extra: Seq[Node] = Seq.empty): Rel =
      new Rel(dag.newNode(kind, node +: extra))

    def project(cols: String*): Rel = mk(OpKind.Project(cols))

    def filter(col: String, cmp: CmpOp, lit: Double): Rel =
      mk(OpKind.Filter(col, cmp, Right(lit)))

    def filterCol(col: String, cmp: CmpOp, other: String): Rel =
      mk(OpKind.Filter(col, cmp, Left(other)))

    def aggregate(group: Seq[String], fn: AggFn, aggCol: Option[String], out: String): Rel =
      mk(OpKind.Agg(group, Seq(AggSpec(fn, aggCol, out))))

    def sum(group: Seq[String], over: String, out: String): Rel =
      aggregate(group, AggFn.Sum, Some(over), out)

    def count(group: Seq[String], out: String): Rel =
      aggregate(group, AggFn.Count, None, out)

    def join(other: Rel, left: Seq[String], right: Seq[String]): Rel =
      mk(OpKind.Join(left, right), Seq(other.node))

    def multiply(out: String, lhs: String, rhs: String): Rel =
      mk(OpKind.Arith(ArithFn.Mul, out, lhs, Left(rhs)))

    def multiplyBy(out: String, lhs: String, scalar: Double): Rel =
      mk(OpKind.Arith(ArithFn.Mul, out, lhs, Right(scalar)))

    def divide(out: String, lhs: String, rhs: String): Rel =
      mk(OpKind.Arith(ArithFn.Div, out, lhs, Left(rhs)))

    def divideBy(out: String, lhs: String, scalar: Double): Rel =
      mk(OpKind.Arith(ArithFn.Div, out, lhs, Right(scalar)))

    def constCol(name: String, value: Double): Rel = mk(OpKind.ConstCol(name, value))

    def sortBy(col: String, ascending: Boolean = true): Rel = mk(OpKind.Sort(col, ascending))

    def limit(n: Int): Rel = mk(OpKind.Limit(n))

    def distinct: Rel = mk(OpKind.Distinct())

    /** Reveal the relation to `recipients` (the query's output). */
    def writeTo(relName: String, recipients: Party*): Rel =
      mk(OpKind.Output(relName, recipients.toSet))

    def schema: Seq[String] = node.schema
  }
}
