package repro.core

/** MPC frontier push-down (paper §5.2).
  *
  * Starting from a plan where everything cross-party runs under MPC, this
  * pass moves work below the `concat` boundary so it runs locally, per
  * party, in the clear:
  *
  *  - *distributive operators* (project, filter, row-wise arithmetic,
  *    constant columns) commute with concat:
  *    op(R_A | R_B | …) ≡ op(R_A) | op(R_B) | …;
  *  - *aggregations* split into per-party local pre-aggregations plus a
  *    small secondary MPC aggregation (sum/count→sum of partials,
  *    min→min, max→max);
  *  - *distinct* splits into local distincts plus an MPC distinct.
  *
  * Splits produce MPC inputs whose sizes are data-dependent (a party's
  * distinct-key count), so they require the parties' consent
  * (`allowCardinalityLeak`). Group-less aggregations always produce exactly
  * one row per party — data-independent — and are split unconditionally.
  */
object PushDown {

  def apply(dag: Dag, config: CompileConfig): Unit = {
    var changed = true
    while (changed) {
      Ownership.annotate(dag)
      // A concat is a push-down site when it still sits under MPC, all of
      // its operands are locally computable, and it has a single consumer.
      val sites = dag.nodes.filter { c =>
        c.kind == OpKind.Concat && c.isMpc &&
          c.children.forall(_.owner.isDefined) && c.parents.length == 1
      }
      changed = sites.map(c => tryPush(dag, config, c, c.parents.head)).contains(true)
    }
    Ownership.annotate(dag)
  }

  /** Attempt to push parent `p` below concat `c`; true if the DAG changed. */
  private def tryPush(dag: Dag, config: CompileConfig, c: Node, p: Node): Boolean = {
    def push(upper: Option[OpKind]): Boolean = { pushBelow(dag, c, p, upper); true }
    p.kind match {
      case _: OpKind.Project | _: OpKind.ConstCol | _: OpKind.Arith => push(None)
      case _: OpKind.Filter if config.pushFiltersDown               => push(None)
      // A group-less aggregation gives one row per party, whatever the data.
      case OpKind.Agg(group, fn, _, out, false) if group.isEmpty || config.allowCardinalityLeak =>
        // Partial counts are combined by summing; other functions self-combine.
        val fn2 = if (fn == AggFn.Count) AggFn.Sum else fn
        push(Some(OpKind.Agg(group, fn2, Some(out), out, secondary = true)))
      case OpKind.Distinct(false) if config.allowCardinalityLeak =>
        push(Some(OpKind.Distinct(secondary = true)))
      case _ => false
    }
  }

  /** op(concat(r_i)) → upper(concat(op(r_i))): `p` runs locally on each
    * operand of `c`, and `upper`, if any, combines the partial results under
    * MPC. Distributive operators have no upper half. The new nodes are made
    * in that order: the locals, the concat, the upper half.
    */
  private def pushBelow(dag: Dag, c: Node, p: Node, upper: Option[OpKind]): Unit = {
    val locals = c.children.toSeq.map(r => dag.newNode(p.kind, Seq(r)))
    val concat = dag.newNode(OpKind.Concat, locals)
    dag.replaceWith(p, upper.fold(concat)(u => dag.newNode(u, Seq(concat))))
  }
}
