package repro.core

/** Stage 6 (first half): partition the DAG at every transition between local
  * cleartext processing and MPC.
  *
  * Each maximal connected subgraph of operators with the same execution
  * mode — (cleartext, owner) or MPC — becomes one stage: every edge between
  * two operators of the same mode joins their stages. Stages are numbered in
  * the topological order of their first operator. Stage numbers are not an
  * execution order: a maximal MPC stage can read a local stage numbered
  * after it (aspirin under `smcqlCompat`: MPC stage 2 reads the medication
  * inputs, stages 3 and 4). So the executor walks the DAG in topological
  * order and does not read the stages; they describe the plan
  * (`Compiler.Plan.stages`, computed when first read) for tests and reports.
  */
object Partition {

  final case class Stage(id: Int, mpc: Boolean, owner: Option[Party], nodes: Seq[Node])

  def apply(dag: Dag): Seq[Stage] = {
    def mode(n: Node) = (n.isMpc, if (n.isMpc) None else n.owner)
    // Union-find over node ids, merged across every same-mode edge.
    val parent = scala.collection.mutable.HashMap.empty[Int, Int]
    def root(id: Int): Int = {
      val p = parent(id)
      if (p == id) id else { val r = root(p); parent(id) = r; r }
    }
    val topo = dag.topo
    topo.foreach { n =>
      parent(n.id) = n.id
      n.children.filter(c => mode(c) == mode(n)).foreach(c => parent(root(c.id)) = root(n.id))
    }
    val byRoot = topo.groupBy(n => root(n.id))
    topo.map(n => root(n.id)).distinct.zipWithIndex.map { case (r, id) =>
      val (mpc, owner) = mode(byRoot(r).head)
      Stage(id, mpc, owner, byRoot(r))
    }
  }
}
