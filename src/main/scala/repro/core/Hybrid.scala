package repro.core

/** Hybrid operator rewrite (paper §5.3, stage 4).
  *
  * Replaces MPC joins and grouped aggregations with their hybrid or public
  * variants when the propagated trust sets authorize it:
  *
  *  - *public join* when the key columns on both sides are trusted by every
  *    party (the keys may be revealed to all, and the join is computed in
  *    the clear);
  *  - *hybrid join* when both key columns share at least one trusted party,
  *    which becomes the selectively-trusted party (STP);
  *  - *hybrid aggregation* when the group-by columns' trust set contains a
  *    party, which becomes the STP.
  *
  * Only a single STP may exist per execution (§3.2): the pass picks the
  * party that enables the most rewrites (ties broken by party order) and
  * applies only the rewrites that party authorizes.
  *
  * Reads the trust sets that [[Trust.annotate]] left on the DAG, through
  * `Trust`'s own key-trust rules. The rewrites change no trust set.
  */
object Hybrid {

  def apply(dag: Dag): Unit = {
    val all = dag.parties

    // Collect candidates: node -> set of possible STPs (excluding public
    // joins, which need no STP and are always applied).
    final case class Candidate(node: Node, stps: Set[Party])
    val candidates = dag.topo.flatMap { n =>
      if (!n.isMpc) None
      else n.kind match {
        case OpKind.Join(lk, rk)     => Some(Candidate(n, Trust.joinKeyTrust(n, lk, rk)))
        case OpKind.Agg(group, _, _) => Some(Candidate(n, Trust.groupKeyTrust(n, group)))
        case _                       => None
      }
    }.filter(_.stps.nonEmpty)

    // Public joins: keys trusted by everyone.
    candidates.foreach { c =>
      c.node.kind match {
        case OpKind.Join(lk, rk) if all.subsetOf(c.stps) =>
          c.node.kind = OpKind.PublicJoin(lk, rk)
        case _ => ()
      }
    }
    val remaining = candidates.filterNot(_.node.kind.isInstanceOf[OpKind.PublicJoin])
    if (remaining.isEmpty) return

    // Choose the single STP enabling the most rewrites (deterministic).
    val stp = remaining.flatMap(_.stps).groupBy(identity).toSeq
      .map { case (p, xs) => (p, xs.length) }
      .minBy { case (p, cnt) => (-cnt, p) }._1

    remaining.filter(_.stps.contains(stp)).foreach { c =>
      c.node.kind = c.node.kind match {
        case OpKind.Join(lk, rk)        => OpKind.HybridJoin(lk, rk, stp)
        case OpKind.Agg(group, aggs, _) => OpKind.HybridAgg(group, aggs, stp)
        case other                      => other
      }
    }
  }
}
