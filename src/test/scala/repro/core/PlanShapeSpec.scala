package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}

import org.scalatest.funsuite.AnyFunSuite
import repro.queries._

import scala.io.Source

/** The compiled-plan corpus: each query below is compiled under four
  * configurations and its plans are compared line by line with the committed
  * dump, `src/test/resources/plans/<query>.txt`. A dump lists every node in
  * topological order (id, kind label, placement, owner, schema, trust sets,
  * `sortedBy`, `preSorted`, children) and then the stages. A change to the
  * compiler passes that keeps every plan leaves every dump as it is.
  *
  * Compile only: no Spark session. On a mismatch the spec prints a line diff
  * and writes the dump it got to `target/plan-shapes/<query>.txt`.
  */
class PlanShapeSpec extends AnyFunSuite {

  private val pA = Party("a"); private val pB = Party("b"); private val pC = Party("c")

  private val configs = Seq(
    "default" -> CompileConfig.default,
    "mpcOnly" -> CompileConfig.mpcOnly,
    "smcqlCompat" -> CompileConfig.smcqlCompat,
    "default-noLeak" -> CompileConfig.default.copy(allowCardinalityLeak = false))

  private def small(body: Dsl => Unit): () => Dag = () => {
    val dag = new Dag
    body(new Dsl(dag))
    dag
  }

  /** Aggregations (grouped, global, count) and a distinct over concats. */
  private val splits = small { q =>
    import q._
    def tu() = concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")))
    tu().count(Seq("k"), "c").writeTo("counts", pA)
    tu().aggregate(Seq("k"), AggFn.Max, Some("v"), "m").writeTo("maxes", pB)
    tu().aggregate(Seq.empty, AggFn.Sum, Some("v"), "s").writeTo("total", pA)
    tu().project("k").distinct.writeTo("keys", pA)
  }

  /** Filter, arithmetic and constant columns distributed below a concat. */
  private val distribute = small { q =>
    import q._
    concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")),
        table("w", pC, col("k"), col("v")))
      .filter("v", CmpOp.Gt, 0)
      .filterCol("k", CmpOp.Leq, "v")
      .multiply("m", "v", "v")
      .constCol("one", 1)
      .divideBy("h", "m", 2)
      .aggregate(Seq("k"), AggFn.Min, Some("h"), "lo")
      .writeTo("out", pC)
  }

  /** Sort chains, some redundant, ahead of a distinct and a limit. */
  private val sortChains = small { q =>
    import q._
    def j() = table("t", pA, col("k"), col("v")).join(table("u", pB, col("k"), col("w")),
      Seq("k"), Seq("k"))
    j().sortBy("k").filter("v", CmpOp.Gt, 1).sortBy("k").project("k").distinct
      .writeTo("ks", pA, pB)
    j().sortBy("v", ascending = false).sortBy("v", ascending = false).sortBy("v", ascending = false)
      .limit(3).writeTo("top", pA, pB)
    j().sortBy("w").project("w", "k").multiply("w", "w", "w").sortBy("w").limit(2)
      .writeTo("low", pA, pB)
  }

  /** A public-key join whose key order makes the distinct sort-free. */
  private val publicDistinct = small { q =>
    import q._
    table("t", pA, publicCol("k"), col("v")).join(table("u", pB, publicCol("k"), col("w")),
        Seq("k"), Seq("k"))
      .filterCol("w", CmpOp.Geq, "v")
      .project("k")
      .distinct
      .count(Seq.empty, "n")
      .writeTo("out", pA)
  }

  /** A join on keys trusted to one party, feeding a min and a max. */
  private val trustedMinMax = small { q =>
    import q._
    val joined = table("t", pA, col("k", trust = Set(pC)), col("g", trust = Set(pC)), col("v"))
      .join(concat(table("u", pB, col("k", trust = Set(pC)), col("w")),
        table("w", pC, col("k"), col("w"))), Seq("k"), Seq("k"))
    joined.aggregate(Seq("g"), AggFn.Min, Some("w"), "lo").writeTo("lo", pC)
    joined.aggregate(Seq("g"), AggFn.Max, Some("v"), "hi").writeTo("hi", pC)
  }

  private val queries: Seq[(String, () => Dag)] = Seq(
    "hhi" -> (() => MarketConcentration.build()),
    "hhi-revenue" -> (() => MarketConcentration.buildRevenueOnly()),
    "credit-trusted" -> (() => CreditRegulation.build(trustRegulator = true)),
    "credit-trusted-exact" -> (() => CreditRegulation.build(trustRegulator = true, withAvg = false)),
    "credit-untrusted" -> (() => CreditRegulation.build(trustRegulator = false)),
    "aspirin" -> (() => AspirinCount.build()),
    "comorbidity" -> (() => Comorbidity.build()),
    "comorbidity-counts" -> (() => Comorbidity.buildCountsOnly()),
    "small-splits" -> splits,
    "small-distribute" -> distribute,
    "small-sort-chains" -> sortChains,
    "small-public-distinct" -> publicDistinct,
    "small-trusted-minmax" -> trustedMinMax,
  )

  private def set(ps: Set[Party]): String = ps.map(_.name).toSeq.sorted.mkString("{", ",", "}")

  private def dump(plan: Compiler.Plan): Seq[String] = {
    val nodes = plan.dag.topo.map { n =>
      val place = if (n.isMpc) "mpc" else "local"
      val secondary = n.kind match {
        case a: OpKind.Agg      => a.secondary
        case d: OpKind.Distinct => d.secondary
        case _                  => false
      }
      val trust = n.trust.toSeq.sortBy(_._1).map { case (c, t) => s"$c=${set(t)}" }
      s"#${n.id} ${n.kind.label}${if (secondary) " secondary" else ""} $place " +
        s"owner=${n.owner.fold("-")(_.name)} schema=${n.schema.mkString("(", ",", ")")} " +
        s"trust=${trust.mkString("[", " ", "]")} sortedBy=${n.sortedBy.fold("-") { case (c, a) => s"$c:$a" }} " +
        s"preSorted=${n.preSorted} children=${n.children.map("#" + _.id).mkString("(", ",", ")")}"
    }
    val stages = plan.stages.map { s =>
      s"stage ${s.id} ${if (s.mpc) "mpc" else "local"} owner=${s.owner.fold("-")(_.name)} " +
        s"nodes=${s.nodes.map("#" + _.id).mkString("(", ",", ")")}"
    }
    nodes ++ stages
  }

  private def dumpAll(build: () => Dag): Seq[String] =
    configs.flatMap { case (name, config) => s"config $name" +: dump(Compiler.compile(build(), config)) }

  for ((name, build) <- queries)
    test(s"$name compiles to its committed plans") {
      val got = dumpAll(build).toIndexedSeq
      val resource = Option(getClass.getResourceAsStream(s"/plans/$name.txt"))
      val want = resource.map { s =>
        val src = Source.fromInputStream(s, "UTF-8")
        try src.getLines().toIndexedSeq finally src.close()
      }.getOrElse(IndexedSeq.empty)
      if (got != want) {
        val dir = Files.createDirectories(Paths.get("target", "plan-shapes"))
        Files.write(dir.resolve(s"$name.txt"), got.mkString("", "\n", "\n").getBytes(UTF_8))
        fail(s"$name differs from plans/$name.txt" +
          (if (resource.isEmpty) " (no committed dump)" else "") +
          s"; got written to target/plan-shapes:\n${PlanTraceSpec.lineDiff(want, got).mkString("\n")}")
      }
    }

  test("every plan's live columns cover what its consumers read") {
    for ((name, build) <- queries; (config, cc) <- configs) {
      val plan = Compiler.compile(build(), cc)
      val live = plan.live
      for (n <- plan.dag.topo) {
        val at = s"$name/$config #${n.id}"
        assert(live(n.id).nonEmpty && live(n.id).forall(n.schema.contains), s"$at: ${live(n.id)}")
        val reads = Ir.reads(n.kind, live(n.id), n.children.map(_.schema).toSeq)
        for ((c, cols) <- n.children.zip(reads)) {
          assert(cols.nonEmpty, s"$at reads no column of #${c.id}")
          assert(cols.forall(live(c.id).contains), s"$at reads $cols of #${c.id}, live ${live(c.id)}")
        }
        if (n.kind.isInstanceOf[OpKind.Output])
          assert(live(n.children.head.id) == n.children.head.schema, s"$at: an output keeps every column")
      }
    }
  }
}
