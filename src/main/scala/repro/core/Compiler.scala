package repro.core

/** The Conclave query compiler: runs the six compilation stages of §5 over
  * an operator DAG. All parties run this deterministically and arrive at the
  * same plan.
  */
object Compiler {

  /** A compiled plan. Its stages (stage 6) are computed only when read:
    * the executor walks the DAG node by node and does not read them. Its
    * live columns are computed under every configuration, because they say
    * how the plan runs: an MPC operator moves only the columns read after it.
    */
  final case class Plan(dag: Dag) {
    lazy val stages: Seq[Partition.Stage] = Partition(dag)
    lazy val live: Map[Int, Seq[String]] = Ir.liveColumns(dag)
    def describe: String = dag.describe
    def mpcNodes: Seq[Node] = dag.topo.filter(_.isMpc)
  }

  def compile(dag: Dag, config: CompileConfig = CompileConfig.default): Plan = {
    // Stage 1: propagate input/output locations; derive the initial frontier.
    if (config.rewrites) {
      Ownership.annotate(dag)
      // Stage 2: rewrite to shrink the MPC — frontier push-down and push-up,
      // then one aggregation for sibling aggregations joined on their groups.
      PushDown(dag, config)
      PushUp(dag)
      FuseAggs(dag)
      // Stage 3: propagate trust annotations.
      Trust.annotate(dag)
      // Stage 4: insert hybrid protocol operators where authorized.
      Hybrid(dag)
      // Stage 5: eliminate redundant oblivious sorts.
      SortElim(dag)
    } else {
      // Baseline mode: the entire query runs under MPC.
      Ownership.forceAllMpc(dag)
      Trust.annotate(dag)
    }
    // Stage 6, partitioning into per-backend stages, runs when the plan's
    // stages are first read.
    Plan(dag)
  }
}
