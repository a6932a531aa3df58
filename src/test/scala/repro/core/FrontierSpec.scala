package repro.core

import java.util.concurrent.ConcurrentLinkedQueue

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.udf
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}
import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.time.{Seconds, Span}
import repro.SparkSpec
import repro.data.Generators
import repro.mpc.{MpcBackend, RelationLeak}
import repro.queries._

import scala.jdk.CollectionConverters._

/** The MPC frontier: every party's input is collected at once, closes run in
  * a fixed order afterwards, revealed outputs stay on the driver, and bad
  * inputs fail before any Spark job.
  */
class FrontierSpec extends SparkSpec with TimeLimits {

  private val pA = Party("a"); private val pB = Party("b"); private val pC = Party("c")
  private val Tag = "repro.frontier.test"

  /** Runs `body` with the local property `Tag` set on this thread and returns
    * the `Tag` value of every Spark job it started ("" where unset).
    */
  private def jobsDuring[A](body: => A): (A, Seq[String]) = {
    val sc = spark.sparkContext
    val tags = new ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        tags.add(Option(e.properties).flatMap(p => Option(p.getProperty(Tag))).getOrElse(""))
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    sc.setLocalProperty(Tag, "run")
    try {
      val a = body
      ListenerBusDrain(sc)
      (a, tags.asScala.toSeq)
    } finally {
      sc.setLocalProperty(Tag, null)
      sc.removeSparkListener(listener)
    }
  }

  private def collectorsAlive: Boolean =
    Thread.getAllStackTraces.keySet.asScala.exists(t => t.getName.startsWith("conclave-collect-") && t.isAlive)

  private def taxiInputs(perParty: Long): Map[String, DataFrame] =
    MarketConcentration.InputNames.zipWithIndex.map { case (nm, i) =>
      nm -> Generators.taxiTrips(spark, perParty, seed = 300 + i)
    }.toMap

  private def creditInputs(nDemo: Int, nScores: Int): Map[String, DataFrame] = Map(
    "demographics" -> Generators.demographics(spark, nDemo, nZips = 8),
    "scores1" -> Generators.creditScores(spark, nScores, nDemo, seed = 301),
    "scores2" -> Generators.creditScores(spark, nScores, nDemo, seed = 302))

  private def twoParty(t: DataFrame, u: DataFrame): Map[String, DataFrame] = Map("t" -> t, "u" -> u)

  private def sumDag(recipient: Party): Dag = {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")))
      .sum(Seq("k"), "v", "s").writeTo("out", recipient)
    dag
  }

  // ------------------------------------------------------------ determinism

  private val threeParty = Seq(
    ("hhi", () => MarketConcentration.build(), MarketConcentration.OutputName,
      () => taxiInputs(150)),
    ("credit", () => CreditRegulation.build(trustRegulator = true, withAvg = true),
      CreditRegulation.OutputName, () => creditInputs(60, 40)))

  for ((query, build, output, inputs) <- threeParty;
       (configName, config) <- Seq("default" -> CompileConfig.default, "mpcOnly" -> CompileConfig.mpcOnly))
    test(s"$query under $configName: runs repeat outputs, counters and the leakage sequence") {
      val plan = Compiler.compile(build(), config)
      val in = inputs()
      def backend = MpcBackend.sharemind(Set(pA, pB, pC))
      val reused = new Executor(spark, backend)
      val runs = Seq(reused.run(plan, in), reused.run(plan, in), new Executor(spark, backend).run(plan, in))
      def rows(r: ExecResult) = r.outputs(output).collect().map(_.toSeq.map(_.asInstanceOf[Double])).toSeq
        .sorted(Ordering.Implicits.seqOrdering[Seq, Double])
      val first = runs.head
      assert(rows(first).nonEmpty)
      runs.tail.foreach { r =>
        assert(rows(r) == rows(first))
        assert(r.metrics.cost == first.metrics.cost)
        assert(r.metrics.closedRows == first.metrics.closedRows)
        assert(r.leakage.events == first.leakage.events)
      }
    }

  // ---------------------------------------------------------------- failure

  test("a party input that fails is rethrown, and no collector thread outlives the run") {
    val boom = udf { (v: Double) =>
      if (v > 0) throw new IllegalStateException("party b's input failed")
      true
    }
    val u = Generators.keyed(spark, 50, 5, seed = 2)
    val inputs = twoParty(Generators.keyed(spark, 50, 5, seed = 1), u.where(boom(u("v"))))
    val plan = Compiler.compile(sumDag(pA), CompileConfig.mpcOnly)
    val ex = new Executor(spark, MpcBackend.sharemind(Set(pA, pB)))
    implicit val signaler: Signaler = ThreadSignaler
    val e = failAfter(Span(120, Seconds))(intercept[Exception](ex.run(plan, inputs)))
    val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
    assert(causes.exists(c => Option(c.getMessage).exists(_.contains("party b's input failed"))), e)
    assert(!collectorsAlive)
  }

  // --------------------------------------------------------- Spark jobs

  test("a revealed output is driver-local: collecting it starts no Spark job") {
    val res = new Executor(spark, MpcBackend.sharemind(Set(pA, pB, pC)))
      .run(Compiler.compile(MarketConcentration.build(), CompileConfig.default), taxiInputs(500))
    val (rows, jobs) = jobsDuring(res.outputs(MarketConcentration.OutputName).collect())
    assert(rows.length == 1)
    assert(jobs.isEmpty, jobs)
  }

  test("hhi under mpcOnly starts at most one Spark job per closed partition, all as the caller's") {
    val inputs = taxiInputs(100)
    val plan = Compiler.compile(MarketConcentration.build(), CompileConfig.mpcOnly)
    val ex = new Executor(spark, MpcBackend.sharemind(Set(pA, pB, pC)))
    val (res, jobs) = jobsDuring(ex.run(plan, inputs))
    val closes = res.leakage.cardinalities.count(_.relation.contains("@"))
    assert(closes == 3)
    assert(jobs.nonEmpty && jobs.length <= closes, jobs)
    assert(jobs.forall(_ == "run"), s"every collector's job carries the caller's local properties: $jobs")
    assert(!collectorsAlive)
  }

  // ----------------------------------------------------------------- inputs

  test("a non-numeric input column fails with its relation and column named, before any Spark job") {
    val st = StructType(Seq(StructField("k", StringType), StructField("v", DoubleType)))
    val strings = spark.createDataFrame(Seq(Row("x", 1.0), Row("y", 2.0)).asJava, st)
    val inputs = twoParty(Generators.keyed(spark, 20, 5), strings)
    val plan = Compiler.compile(sumDag(pA), CompileConfig.default)
    val ex = new Executor(spark, MpcBackend.sharemind(Set(pA, pB)))
    val (e, jobs) = jobsDuring(intercept[IllegalArgumentException](ex.run(plan, inputs)))
    assert(e.getMessage.contains("'u'") && e.getMessage.contains("'k'"), e.getMessage)
    assert(jobs.isEmpty, jobs)
  }

  // ----------------------------------------------------------------- output

  test("a partitioned cleartext relation is output to its recipient as the union of the parts") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v"))).writeTo("out", pC)
    val inputs = twoParty(Generators.keyed(spark, 30, 5, seed = 1), Generators.keyed(spark, 20, 5, seed = 2))
    val res = new Executor(spark, MpcBackend.sharemind(Set(pA, pB, pC)))
      .run(Compiler.compile(dag, CompileConfig.default), inputs)
    def rows(df: DataFrame) = df.collect().map(r => (r.getDouble(0), r.getDouble(1))).sorted.toSeq
    assert(rows(res.outputs("out")) == rows(inputs("t").unionAll(inputs("u"))))
    assert(res.metrics.closedRows == 0)
    assert(res.leakage.relations.contains(RelationLeak("out", Set(pC))))
  }
}
