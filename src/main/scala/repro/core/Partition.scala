package repro.core

/** Stage 6 (first half): partition the DAG at every transition between local
  * cleartext processing and MPC.
  *
  * Each maximal connected subgraph of operators with the same execution
  * mode — (cleartext, owner) or MPC — becomes one stage. The executor walks
  * the DAG in topological order and does not read the stages; they describe
  * the plan (`Compiler.Plan.stages`) for tests and reports.
  */
object Partition {

  final case class Stage(id: Int, mpc: Boolean, owner: Option[Party], nodes: Seq[Node])

  def apply(dag: Dag): Seq[Stage] = {
    var next = 0
    val modes = scala.collection.mutable.LinkedHashMap.empty[Int, (Boolean, Option[Party])]
    val stageOf = scala.collection.mutable.HashMap.empty[Int, Int] // node id -> stage id
    dag.topo.foreach { n =>
      val mode = (n.isMpc, if (n.isMpc) None else n.owner)
      stageOf(n.id) = n.children.find { c =>
        (c.isMpc, if (c.isMpc) None else c.owner) == mode
      } match {
        case Some(c) => stageOf(c.id)
        case None    => val id = next; next += 1; modes(id) = mode; id
      }
    }
    val byStage = dag.topo.groupBy(n => stageOf(n.id))
    modes.toSeq.map { case (id, (mpc, owner)) =>
      Stage(id, mpc, owner, byStage.getOrElse(id, Seq.empty))
    }
  }
}
