package repro.core

/** MPC frontier push-up (paper §5.2).
  *
  * Walking up from each output relation, reversible operators are lifted out
  * of MPC and evaluated in the clear by the receiving party after the
  * reveal: since the operator's input can be reconstructed from its output,
  * revealing the input instead leaks nothing extra.
  *
  * Reversible operators handled:
  *  - row-wise multiplication/division by a fixed non-zero scalar;
  *  - addition/subtraction of a fixed scalar;
  *  - reordering projections (permutations of the full schema);
  *  - sorts (the revealed relation is a multiset — ordering adds nothing).
  *
  * Additionally, a leaf `count` aggregation inherently reveals the group-by
  * key frequencies, so it is rewritten into an MPC projection onto the
  * group-by columns plus a cleartext count at the recipient — projections
  * scale far better under MPC than aggregations (§2.3).
  */
object PushUp {

  def apply(dag: Dag): Unit = {
    dag.outputs.foreach { out =>
      val recipients = out.kind.asInstanceOf[OpKind.Output].recipients
      if (recipients.size == 1) liftChain(dag, out, recipients.head)
    }
  }

  private def liftChain(dag: Dag, out: Node, recipient: Party): Unit = {
    var cur = out.children.head
    var continue = true
    while (continue) {
      continue = false
      if (cur.isMpc && cur.parents.length == 1 && cur.children.length == 1) {
        if (isReversible(cur)) {
          cur.isMpc = false
          cur.owner = Some(recipient)
          cur = cur.children.head
          continue = true
        } else if (isLeafCount(cur)) {
          rewriteLeafCount(dag, cur, recipient)
        }
      }
    }
  }

  private def isReversible(n: Node): Boolean = n.kind match {
    case OpKind.Arith(ArithFn.Mul, _, _, Right(s)) => s != 0.0
    case OpKind.Arith(ArithFn.Div, _, _, Right(s)) => s != 0.0
    case OpKind.Arith(ArithFn.Add, _, _, Right(_)) => true
    case OpKind.Arith(ArithFn.Sub, _, _, Right(_)) => true
    case OpKind.Project(cols) =>
      cols.toSet == n.children.head.schema.toSet // pure reorder
    case _: OpKind.Sort => true
    case _              => false
  }

  private def isLeafCount(n: Node): Boolean = n.kind match {
    case OpKind.Agg(group, Seq(AggSpec(AggFn.Count, _, _)), _) => group.nonEmpty
    case _                                                     => false
  }

  /** count-by-key at the frontier → MPC projection + cleartext count. */
  private def rewriteLeafCount(dag: Dag, agg: Node, recipient: Party): Unit = {
    val OpKind.Agg(group, _, _) = (agg.kind: @unchecked)
    val child = agg.children.head
    val proj = dag.newNode(OpKind.Project(group), Seq(child))
    // The rewrite only fires on an MPC aggregation, whose input is
    // necessarily partitioned — the projection stays under MPC.
    proj.isMpc = true
    // Rewire: agg now consumes the projection and runs in the clear.
    child.parents -= agg
    agg.children.clear()
    agg.children += proj
    proj.parents += agg
    agg.isMpc = false
    agg.owner = Some(recipient)
  }
}
