package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** Self-test of the benchmark: every workload at a tiny size, traced.
  * Run with `sbt test` from `perfbench/`.
  */
class BenchmarkSelfTest extends AnyFunSuite with BeforeAndAfterAll {

  private val scratch = new File(sys.props.getOrElse("perfbench.scratch", "../.bench_build/selftest"))
  private lazy val spark: SparkSession = Session.create(scratch)

  override def afterAll(): Unit = spark.stop()

  /** (name, unit) of each metric BENCHMARK.json declares under `key`. */
  private def declared(key: String): Map[String, String] = {
    val root = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
    root.get(key).elements.asScala.map(m => m.get("name").asText -> m.get("unit").asText).toMap
  }

  private def run(w: Workload, corruptReference: Boolean = false): Report =
    new Runner(spark, 0.0, RunConfig(w, seed = 7, seconds = 0, trace = true, tiny = true,
      corruptReference = corruptReference), scratch).run()

  test("BENCHMARK.json names only workloads the benchmark runs") {
    val root = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
    val named = root.get("workloads").elements.asScala.map(_.get("name").asText).toSeq
    assert(named.nonEmpty && named.forall(Workload.byName(_).isDefined), named)
  }

  Workload.all.foreach { w =>
    test(s"${w.name}: every declared metric is emitted with its unit; exact counters repeat") {
      val r = run(w)
      assert(r.correct && r.failed == 0 && r.attempted >= 2, s"${r.failed}/${r.attempted} failed")
      assert(r.endToEnd.map(m => m.name -> m.unit).toMap == declared("end_to_end"))
      assert(r.perLayer.map(m => m.name -> m.unit).toMap == declared("per_layer"))
      assert(r.records(w.name).exists(rec => rec("metric") == "error_rate" && rec("unit") == "ratio"))
      // The runner already fails a query whose CostSnapshot or leakage
      // multiset differs from the first one; the reported counters repeat too.
      for (name <- Seq("mpc_modeled_s", "frontier_rows")) {
        val m = r.endToEnd.find(_.name == name).get
        assert(m.samples.length >= 2 && m.samples.distinct.size == 1, s"$name: ${m.samples}")
      }
    }
  }

  test("job span union and coverage") {
    def span(a: Double, b: Double) = Span(0, "job", "", a, b)
    val jobs = Seq(span(0, 1000), span(500, 1500), span(3000, 4000))
    assert(SparkJobs.unionSeconds(jobs) == 2.5)
    assert(SparkJobs.coveredSeconds(jobs, span(1000, 3500)) == 1.0)
  }

  test("a wrong reference is counted in error_rate") {
    val r = run(Workload.CreditHybrid, corruptReference = true)
    assert(!r.correct)
    assert(r.failed == r.attempted && r.errorRate == 1.0)
  }
}
