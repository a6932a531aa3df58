package repro.core

/** Oblivious-sort tracking and elimination (paper §5.4, stage 5).
  *
  * Traverses the DAG tracking the column each intermediate relation is
  * sorted by (if any). A claim holds only while the kernel that runs each
  * operator really keeps the order:
  *   - filters, projections keeping the column, and arithmetic writing some
  *     other column keep it; arithmetic that overwrites the column drops it;
  *   - a limit keeps it only right after a sort (`Node.isSortedLimit`); any
  *     other limit compacts, which shuffles. So a sort feeding a limit is
  *     never removed, even when its input is already sorted;
  *   - a distinct keeps it only when `preSorted`, i.e. when it runs no sort
  *     of its own; otherwise it re-sorts by every column;
  *   - joins, aggregations and concat drop it — except the public join,
  *     whose rows are paired in the clear and come in key order.
  *
  * A sort whose parents are all sorts is removed whatever its input: each
  * parent reorders every row, and an oblivious sort is not stable, so the
  * lower sort's order is never read.
  *
  * Consumers that sort internally are marked `preSorted` when their input is
  * already ordered compatibly, letting the executor skip the O(n log² n)
  * oblivious sorting network (the §7.4 aspirin-count optimization that
  * reduces the MPC from O(n log n) to O(n)); redundant explicit sort nodes
  * are removed outright.
  */
object SortElim {

  /** One topological walk. A spliced sort's parents are either readers of
    * its child, which carries the same claim, or sorts, which reorder every
    * row and read a claim only to decide their own splice. Every node
    * visited before it is below it, so a splice changes nothing the walk
    * has read, and each later node reads the claim it now sits on.
    */
  def apply(dag: Dag): Unit = dag.topo.foreach { n =>
    val in = n.children.headOption.flatMap(_.sortedBy)
    // preSorted consumers: skip the internal oblivious sort.
    n.preSorted = n.kind match {
      case OpKind.Agg(Seq(g), _, _) => in.contains((g, true))
      // Safe when equal rows are guaranteed adjacent: the relation has
      // exactly one column and is sorted by it.
      case _: OpKind.Distinct =>
        val schema = n.children.head.schema
        schema.length == 1 && in.exists(_._1 == schema.head)
      case _ => false
    }
    n.sortedBy = n.kind match {
      case _: OpKind.Input | OpKind.Concat => None // concat interleaves partitions
      // Filters only clear validity flags, so they keep the order too.
      case _: OpKind.Output | _: OpKind.Filter | _: OpKind.ConstCol => in
      case OpKind.Project(cols)       => in.filter { case (c, _) => cols.contains(c) }
      case OpKind.Arith(_, out, _, _) => in.filterNot(_._1 == out)
      case OpKind.Limit(_)            => in.filter(_ => n.isSortedLimit)
      case OpKind.Distinct(_)         => in.filter(_ => n.preSorted)
      case OpKind.Sort(col, asc) =>
        val redundant = n.parents.forall(_.kind.isInstanceOf[OpKind.Sort]) ||
          in.contains((col, asc)) && !n.parents.exists(_.isSortedLimit)
        if (n.parents.nonEmpty && redundant) dag.splice(n) // redundant oblivious sort
        Some((col, asc))
      case OpKind.PublicJoin(lk, _) => Some((lk.head, true)) // pairs come in key order
      case _: OpKind.JoinKind | _: OpKind.AggKind => None // shuffled outputs
    }
  }
}
