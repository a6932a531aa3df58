package repro.core

/** Sibling-aggregation fusion (stage 2, after push-down and push-up).
  *
  * A query that computes several aggregates of one relation by the same
  * group, one aggregation each, and joins the results on the group columns
  * (credit's COUNT and SUM by ZIP, §2.1 Listing 1) pays for each
  * aggregation's oblivious sort, or its hybrid shuffle, STP opening and
  * compaction (§5.3), over the same rows, and then for the join. One
  * aggregation with every output computes the same relation: both sides
  * group the same rows, so each group meets exactly one row on the other
  * side.
  *
  * The rule fires on an MPC join of two MPC aggregations that read the same
  * child, have that join as their only consumer, and both group by exactly
  * the join keys, in order. The join node becomes the aggregation, in
  * place, and keeps its id; its outputs are the left side's, then the right
  * side's, which is the join's layout ([[Ir.joinColumns]]). It is applied
  * until no join matches, so three aggregations joined pairwise fuse into
  * one. Cleartext nodes are left alone: Spark's join drops a NULL key's
  * group, which a fused `groupBy` keeps; MPC values have no NULL.
  */
object FuseAggs {

  def apply(dag: Dag): Unit = dag.topo.find(fusable).foreach { j => fuse(dag, j); apply(dag) }

  private def fusable(j: Node): Boolean = (j.kind, j.children.toSeq) match {
    case (OpKind.Join(lk, rk), Seq(l, r)) if j.isMpc && lk == rk && (l ne r) =>
      def sibling(a: Node) = a.isMpc && a.parents.toSeq == Seq(j) && (a.kind match {
        case OpKind.Agg(group, _, false) => group == lk
        case _                           => false
      })
      sibling(l) && sibling(r) && (l.children.head eq r.children.head)
    case _ => false
  }

  /** join(agg_l(c), agg_r(c)) → agg_{l ++ r}(c), at the join's node. */
  private def fuse(dag: Dag, j: Node): Unit = {
    val Seq(l, r) = j.children.toSeq
    val (OpKind.Agg(group, lAggs, _), OpKind.Agg(_, rAggs, _)) = ((l.kind, r.kind): @unchecked)
    val child = l.children.head
    j.kind = OpKind.Agg(group, lAggs ++ rAggs)
    j.children.clear()
    j.children += child
    child.parents += j
    Seq(l, r).foreach { a => a.parents.clear(); dag.detachIfOrphan(a) }
  }
}
