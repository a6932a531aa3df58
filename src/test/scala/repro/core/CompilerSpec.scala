package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.queries._

/** Structural tests of the compilation passes: where the MPC frontier lands,
  * which rewrites fire, and the annotations they rely on.
  */
class CompilerSpec extends AnyFunSuite {

  private val pA = Party("a"); private val pB = Party("b"); private val pC = Party("c")

  // ------------------------------------------------------------------- IR/DSL

  test("DSL builds the expected schemas") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val t = table("t", pA, col("k"), col("v"))
    assert(t.schema == Seq("k", "v"))
    assert(t.project("v").schema == Seq("v"))
    assert(t.sum(Seq("k"), "v", "s").schema == Seq("k", "s"))
    assert(t.count(Seq("k"), "c").schema == Seq("k", "c"))
    assert(t.multiply("m", "v", "v").schema == Seq("k", "v", "m"))
    assert(t.constCol("one", 1).schema == Seq("k", "v", "one"))
    val u = table("u", pB, col("k"), col("w"))
    assert(t.join(u, Seq("k"), Seq("k")).schema == Seq("k", "v", "w"))
  }

  test("schema validation rejects unknown columns") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val t = table("t", pA, col("k"))
    assertThrows[IllegalArgumentException](t.project("nope").schema)
    assertThrows[IllegalArgumentException](t.filter("nope", CmpOp.Eq, 1).schema)
    assertThrows[IllegalArgumentException](t.sum(Seq("k"), "nope", "s").schema)
  }

  test("concat requires identical schemas") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val t = table("t", pA, col("k")); val u = table("u", pB, col("z"))
    assertThrows[IllegalArgumentException](concat(t, u).schema)
  }

  test("topological order places children before parents") {
    val dag = MarketConcentration.build()
    val pos = dag.topo.zipWithIndex.map { case (n, i) => n.id -> i }.toMap
    dag.topo.foreach(n => n.children.foreach(c => assert(pos(c.id) < pos(n.id))))
  }

  test("dag.parties collects owners and recipients") {
    val dag = CreditRegulation.build()
    assert(dag.parties == Set(pA, pB, pC))
  }

  // ---------------------------------------------------------------- ownership

  test("ownership: inputs owned, concat unowned, unary ops inherit") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val t = table("t", pA, col("k"))
    val u = table("u", pB, col("k"))
    val c = concat(t, u)
    val p = c.project("k")
    val local = t.project("k")
    p.writeTo("out", pA)
    Ownership.annotate(dag)
    assert(t.node.owner.contains(pA) && !t.node.isMpc)
    assert(c.node.owner.isEmpty && c.node.isMpc)
    assert(p.node.owner.isEmpty && p.node.isMpc)
    assert(local.node.owner.contains(pA) && !local.node.isMpc)
  }

  test("forceAllMpc puts every inner operator under MPC") {
    val dag = MarketConcentration.build()
    Ownership.forceAllMpc(dag)
    dag.topo.foreach { n =>
      n.kind match {
        case _: OpKind.Input | _: OpKind.Output => assert(!n.isMpc)
        case _                                  => assert(n.isMpc, n.toString)
      }
    }
  }

  // ---------------------------------------------------------------- push-down

  test("push-down distributes project and filter below concat and splits the aggregation") {
    val dag = MarketConcentration.build()
    Compiler.compile(dag)
    // Three local pre-aggregation chains (one per party) plus one secondary.
    val aggs = dag.topo.filter(_.kind.isInstanceOf[OpKind.Agg])
    val (secondary, locals) = aggs.partition {
      case n => n.kind.asInstanceOf[OpKind.Agg].secondary || n.kind.asInstanceOf[OpKind.Agg].group.isEmpty
    }
    assert(locals.count(n => n.kind.asInstanceOf[OpKind.Agg].group == Seq("companyID") && !n.isMpc) == 3,
      dag.describe)
    val sec = dag.topo.find(n => n.kind match {
      case a: OpKind.Agg => a.secondary
      case _             => false
    }).get
    assert(sec.isMpc, "secondary aggregation stays under MPC")
    assert(sec.kind.asInstanceOf[OpKind.Agg].fn == AggFn.Sum)
    // Projections and filters run locally at each party.
    dag.topo.filter(_.kind.isInstanceOf[OpKind.Project]).foreach(n => assert(!n.isMpc, n.toString))
    dag.topo.filter(_.kind.isInstanceOf[OpKind.Filter]).foreach(n => assert(!n.isMpc, n.toString))
  }

  test("push-down moves the frontier to just a few MPC operators for the HHI query") {
    val dag = MarketConcentration.build()
    val plan = Compiler.compile(dag)
    // Everything data-intensive is local; the MPC clique is the secondary
    // aggregation and the tiny share arithmetic (§7.1).
    val mpcKinds = plan.mpcNodes.map(_.kind)
    assert(mpcKinds.nonEmpty)
    assert(!mpcKinds.exists(_.isInstanceOf[OpKind.Filter]), "filters must be local")
    assert(!mpcKinds.exists(_.isInstanceOf[OpKind.Project]), "projections must be local")
  }

  test("splitting a count produces local counts combined by a secondary sum") {
    val dag = Comorbidity.build()
    Compiler.compile(dag)
    val localCounts = dag.topo.filter(n => n.kind match {
      case OpKind.Agg(Seq("diag"), AggFn.Count, _, _, false) => !n.isMpc
      case _                                                 => false
    })
    assert(localCounts.length == 2, dag.describe)
    assert(dag.topo.exists(n => n.kind match {
      case OpKind.Agg(Seq("diag"), AggFn.Sum, Some("cnt"), "cnt", true) => n.isMpc
      case _                                                            => false
    }), dag.describe)
  }

  test("without cardinality-leak consent the grouped aggregation is not split") {
    val dag = Comorbidity.build()
    Compiler.compile(dag, CompileConfig.default.copy(allowCardinalityLeak = false))
    val aggs = dag.topo.filter(_.kind.isInstanceOf[OpKind.Agg])
    assert(aggs.length == 1 && aggs.head.isMpc, dag.describe)
  }

  test("group-less aggregations split regardless of consent (size-independent)") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val t = table("t", pA, col("v")); val u = table("u", pB, col("v"))
    concat(t, u).aggregate(Seq.empty, AggFn.Sum, Some("v"), "s").writeTo("out", pA)
    Compiler.compile(dag, CompileConfig.default.copy(allowCardinalityLeak = false))
    val locals = dag.topo.filter(n => n.kind.isInstanceOf[OpKind.Agg] && !n.isMpc)
    assert(locals.length == 2, dag.describe)
  }

  test("smcqlCompat keeps filters under MPC") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val t = table("t", pA, col("k")); val u = table("u", pB, col("k"))
    concat(t, u).filter("k", CmpOp.Gt, 0).writeTo("out", pA)
    Compiler.compile(dag, CompileConfig.smcqlCompat)
    val f = dag.topo.find(_.kind.isInstanceOf[OpKind.Filter]).get
    assert(f.isMpc, dag.describe)
  }

  test("default config pushes the same filter down") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val t = table("t", pA, col("k")); val u = table("u", pB, col("k"))
    concat(t, u).filter("k", CmpOp.Gt, 0).writeTo("out", pA)
    Compiler.compile(dag)
    assert(dag.topo.filter(_.kind.isInstanceOf[OpKind.Filter]).forall(!_.isMpc), dag.describe)
  }

  // ------------------------------------------------------------------ push-up

  test("push-up lifts reversible scalar arithmetic to the recipient") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val t = table("t", pA, col("v")); val u = table("u", pB, col("v"))
    concat(t, u).aggregate(Seq.empty, AggFn.Sum, Some("v"), "s")
      .multiplyBy("s2", "s", 3.0)
      .writeTo("out", pC)
    Compiler.compile(dag)
    val arith = dag.topo.find(_.kind.isInstanceOf[OpKind.Arith]).get
    assert(!arith.isMpc && arith.owner.contains(pC), dag.describe)
  }

  test("push-up does not lift multiplication by zero (irreversible)") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val t = table("t", pA, col("v")); val u = table("u", pB, col("v"))
    concat(t, u).aggregate(Seq.empty, AggFn.Sum, Some("v"), "s")
      .multiplyBy("s2", "s", 0.0)
      .writeTo("out", pC)
    Compiler.compile(dag)
    val arith = dag.topo.find(_.kind.isInstanceOf[OpKind.Arith]).get
    assert(arith.isMpc, dag.describe)
  }

  test("push-up rewrites a leaf count into an MPC projection + cleartext count") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val t = table("t", pA, col("k"), col("v")); val u = table("u", pB, col("k"), col("v"))
    // Join first so push-down cannot split the aggregation instead.
    t.join(u, Seq("k"), Seq("k")).count(Seq("k"), "c").writeTo("out", pC)
    Compiler.compile(dag)
    val agg = dag.topo.find(_.kind.isInstanceOf[OpKind.Agg]).get
    assert(!agg.isMpc && agg.owner.contains(pC), dag.describe)
    val proj = agg.children.head
    assert(proj.kind == OpKind.Project(Seq("k")) && proj.isMpc, dag.describe)
  }

  test("push-up lifts a trailing sort to the recipient") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val t = table("t", pA, col("k"), col("v")); val u = table("u", pB, col("k"), col("v"))
    t.join(u, Seq("k"), Seq("k")).sortBy("v").writeTo("out", pC)
    Compiler.compile(dag)
    val sort = dag.topo.find(_.kind.isInstanceOf[OpKind.Sort]).get
    assert(!sort.isMpc && sort.owner.contains(pC), dag.describe)
  }

  // -------------------------------------------------------------------- trust

  test("trust: input annotations union the owner; public columns trust everyone") {
    val dag = CreditRegulation.build()
    Trust.annotate(dag)
    val s1 = dag.inputs.find(_.kind.asInstanceOf[OpKind.Input].relName == "scores1").get
    assert(s1.trust("ssn") == Set(pA, pB))
    assert(s1.trust("score") == Set(pB))
    val aspirin = AspirinCount.build()
    Trust.annotate(aspirin)
    val d1 = aspirin.inputs.find(_.kind.asInstanceOf[OpKind.Input].relName == "diag1").get
    assert(d1.trust("patient") == Set(AspirinCount.pH1, AspirinCount.pH2))
  }

  test("trust: concat intersects, join keys gate all result columns") {
    val dag = CreditRegulation.build()
    Trust.annotate(dag)
    val concatNode = dag.topo.find(_.kind == OpKind.Concat).get
    assert(concatNode.trust("ssn") == Set(pA), "concat of {A,B} and {A,C} is {A}")
    assert(concatNode.trust("score") == Set.empty)
    val join = dag.topo.find(_.kind.isInstanceOf[OpKind.Join]).get
    assert(join.trust("zip") == Set(pA))
    assert(join.trust("score") == Set.empty)
  }

  // ------------------------------------------------------------------- hybrid

  test("credit query: trust annotations trigger hybrid join + hybrid aggregations with STP A") {
    val dag = CreditRegulation.build(trustRegulator = true)
    Compiler.compile(dag)
    val hj = dag.topo.collect { case n if n.kind.isInstanceOf[OpKind.HybridJoin] => n.kind }
    val ha = dag.topo.collect { case n if n.kind.isInstanceOf[OpKind.HybridAgg] => n.kind }
    assert(hj.size == 2, s"both the ssn join and the zip join become hybrid:\n${dag.describe}")
    assert(hj.forall(_.asInstanceOf[OpKind.HybridJoin].stp == pA))
    assert(ha.size == 2, s"count-by-zip and sum-by-zip become hybrid:\n${dag.describe}")
    assert(ha.forall(_.asInstanceOf[OpKind.HybridAgg].stp == pA))
  }

  test("credit query without annotations stays fully MPC") {
    val dag = CreditRegulation.build(trustRegulator = false)
    Compiler.compile(dag)
    assert(!dag.topo.exists(n => n.kind.isInstanceOf[OpKind.HybridJoin] ||
      n.kind.isInstanceOf[OpKind.HybridAgg] || n.kind.isInstanceOf[OpKind.PublicJoin]),
      dag.describe)
  }

  test("aspirin: public patient IDs turn the join into a public join") {
    val dag = AspirinCount.build()
    Compiler.compile(dag, CompileConfig.smcqlCompat)
    assert(dag.topo.count(_.kind.isInstanceOf[OpKind.PublicJoin]) == 1, dag.describe)
  }

  test("aspirin over one hospital runs every operator in the clear at that hospital") {
    for (h <- Seq(1, 2)) {
      val dag = Compiler.compile(AspirinCount.build(Seq(h))).dag
      assert(dag.inputs.map(_.kind.asInstanceOf[OpKind.Input].relName) == Seq(s"diag$h", s"med$h"))
      assert(dag.topo.forall(n => !n.isMpc && n.owner.contains(Party(s"h$h"))), dag.describe)
      assert(dag.outputs.map(_.kind) ==
        Seq(OpKind.Output(AspirinCount.OutputName, Set(AspirinCount.pH1))))
    }
  }

  test("a single STP is chosen even when candidates disagree") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    // Two joins: one authorizes only B, the other authorizes B and C.
    val t1 = table("t1", pA, col("k", trust = Set(pB)), col("x"))
    val t2 = table("t2", pC, col("k", trust = Set(pB)), col("y"))
    val t3 = table("t3", pA, col("k", trust = Set(pB, pC)), col("z"))
    val t4 = table("t4", pB, col("k", trust = Set(pC)), col("w"))
    t1.join(t2, Seq("k"), Seq("k")).writeTo("o1", pA)
    t3.join(t4, Seq("k"), Seq("k")).writeTo("o2", pA)
    Compiler.compile(dag)
    val stps = dag.topo.collect { case n if n.kind.isInstanceOf[OpKind.HybridJoin] =>
      n.kind.asInstanceOf[OpKind.HybridJoin].stp
    }
    assert(stps.toSet.size <= 1, s"only one STP allowed, got $stps\n${dag.describe}")
  }

  // -------------------------------------------------------- sort elimination

  test("aspirin: distinct is preSorted thanks to the public join's key order") {
    val dag = AspirinCount.build()
    Compiler.compile(dag, CompileConfig.smcqlCompat)
    val d = dag.topo.find(_.kind.isInstanceOf[OpKind.Distinct]).get
    assert(d.preSorted, dag.describe)
  }

  test("a redundant explicit sort after order-by is spliced out") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val t = table("t", pA, col("k"), col("v")); val u = table("u", pB, col("k"), col("v"))
    t.join(u, Seq("k"), Seq("k")).sortBy("v").filter("k", CmpOp.Gt, 0).sortBy("v")
      .aggregate(Seq.empty, AggFn.Sum, Some("v"), "s").writeTo("out", pA)
    val sortsBefore = dag.topo.count(_.kind.isInstanceOf[OpKind.Sort])
    Compiler.compile(dag)
    val sortsAfter = dag.topo.count(_.kind.isInstanceOf[OpKind.Sort])
    assert(sortsBefore == 2 && sortsAfter == 1, dag.describe)
  }

  test("comorbidity keeps its (non-redundant) MPC sort") {
    val dag = Comorbidity.build()
    Compiler.compile(dag)
    val sorts = dag.topo.filter(_.kind.isInstanceOf[OpKind.Sort])
    assert(sorts.length == 1 && sorts.head.isMpc, dag.describe)
  }

  // --------------------------------------------------------------- partition

  test("partitioning separates local and MPC stages") {
    val dag = MarketConcentration.build()
    val plan = Compiler.compile(dag)
    val mpcStages = plan.stages.filter(_.mpc)
    val localStages = plan.stages.filterNot(_.mpc)
    assert(mpcStages.nonEmpty && localStages.nonEmpty)
    // Every node belongs to exactly one stage.
    assert(plan.stages.flatMap(_.nodes).map(_.id).sorted == dag.topo.map(_.id).sorted)
  }

  test("mpcOnly plan has a single MPC stage covering all inner operators") {
    for (dag <- Seq(Comorbidity.build(), AspirinCount.build())) {
      val plan = Compiler.compile(dag, CompileConfig.mpcOnly)
      val mpcStages = plan.stages.filter(_.mpc)
      assert(mpcStages.length == 1, plan.describe)
      // Stages are maximal: no edge joins two operators of the same mode
      // across two stages.
      val stageOf = plan.stages.flatMap(s => s.nodes.map(_.id -> s)).toMap
      for (n <- dag.topo; c <- n.children) {
        val (sn, sc) = (stageOf(n.id), stageOf(c.id))
        assert(sn.id == sc.id || (sn.mpc, sn.owner) != (sc.mpc, sc.owner), s"#${c.id} -> #${n.id}")
      }
    }
  }
}
