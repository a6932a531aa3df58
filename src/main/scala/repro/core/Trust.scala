package repro.core

/** Pass 2 of §5.1: propagate per-column trust sets through the DAG.
  *
  * A party is trusted with an intermediate column if it is entrusted with
  * enough input data to compute that column in the clear. For each operator,
  * each result column's trust set is the intersection of the trust sets of
  * the operand columns it depends on — both the columns contributing its
  * rows and the columns deciding how rows are combined, filtered or
  * reordered (group-by keys, join keys, sort keys, filter predicates).
  *
  * This maintains Conclave's invariant: a column is only ever revealed to a
  * party that could derive it from input columns it is authorized to learn.
  */
object Trust {

  def annotate(dag: Dag): Unit = {
    val all = dag.parties
    dag.topo.foreach { n =>
      n.trust = n.kind match {
        case OpKind.Input(_, cols, owner) =>
          cols.map { c =>
            c.name -> (if (c.public) all else c.trust + owner)
          }.toMap

        case OpKind.Output(_, recipients) =>
          // Recipients learn the whole output relation in the clear.
          n.children.head.trust.map { case (c, t) => c -> (t ++ recipients) }

        case OpKind.Concat =>
          val schemas = n.children.map(_.trust)
          n.schema.map { c =>
            c -> schemas.map(_.getOrElse(c, Set.empty[Party])).reduce(_ intersect _)
          }.toMap

        case OpKind.Project(cols) =>
          cols.map(c => c -> n.children.head.trust(c)).toMap

        case OpKind.Filter(col, _, rhs) =>
          val ct = n.children.head.trust
          val predTrust = (col +: rhs.left.toSeq).map(ct).reduce(_ intersect _)
          ct.map { case (c, t) => c -> (t intersect predTrust) }

        case a: OpKind.AggKind =>
          val ct = n.children.head.trust
          val groupTrust = groupKeyTrust(n, a.group)
          def outT(aggCol: Option[String]) = aggCol match {
            case Some(c) if a.group.nonEmpty => ct(c) intersect groupTrust
            case Some(c)                     => ct(c) // global fold over one column
            case None if a.group.nonEmpty    => groupTrust // count depends on keys only
            case None                        => Set.empty[Party] // global count: conservative
          }
          a.group.map(g => g -> groupTrust).toMap ++ a.aggs.map(s => s.out -> outT(s.aggCol))

        case j: OpKind.JoinKind =>
          // The keys decide which rows pair up, so they gate every column.
          val Seq(l, r) = n.children.toSeq
          val keyTrust = joinKeyTrust(n, j.lKeys, j.rKeys)
          (l.schema.map(c => c -> (l.trust(c) intersect keyTrust)) ++
            r.schema.filterNot(j.rKeys.contains).map(c => c -> (r.trust(c) intersect keyTrust))).toMap

        case OpKind.Arith(_, out, lhs, rhs) =>
          val ct = n.children.head.trust
          val outT = rhs.left.toSeq.foldLeft(ct(lhs))((t, c2) => t intersect ct(c2))
          // Row-wise arithmetic neither filters nor reorders: other columns
          // keep their trust; the result column intersects its operands.
          ct ++ Map(out -> outT)

        case OpKind.ConstCol(name, _) =>
          n.children.head.trust ++ Map(name -> all) // a public constant

        case OpKind.Sort(col, _) =>
          val ct = n.children.head.trust
          ct.map { case (c, t) => c -> (t intersect ct(col)) }

        case OpKind.Limit(_) => n.children.head.trust

        case OpKind.Distinct(_) =>
          // Deduplication combines rows based on every column.
          val ct = n.children.head.trust
          val allCols = ct.values.foldLeft(all)(_ intersect _)
          ct.map { case (c, _) => c -> allCols }
      }
    }
  }

  /** The parties trusted with every group-by column: those that may learn
    * how rows group (and so may host a hybrid aggregation). None for a
    * group-less aggregation.
    */
  def groupKeyTrust(n: Node, group: Seq[String]): Set[Party] = {
    val ct = n.children.head.trust
    if (group.isEmpty) Set.empty[Party] else group.map(ct).reduce(_ intersect _)
  }

  /** The parties trusted with every join key column on both sides: those
    * that may learn which rows match (and so may host a hybrid join; all
    * parties make it a public join).
    */
  def joinKeyTrust(n: Node, lk: Seq[String], rk: Seq[String]): Set[Party] =
    (lk.map(n.children(0).trust) ++ rk.map(n.children(1).trust)).reduce(_ intersect _)
}
