package repro.perfbench

import java.io.File
import java.lang.management.ManagementFactory
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.mpc.CostSnapshot
import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The pinned Spark session every workload runs in. */
object Session {
  /** Master thread count, capped by the cores the machine has. */
  val Threads = 4
  /** Partitions of `spark.range`, and so of the generated inputs: fixed, so
    * the data does not follow the machine's core count.
    */
  val DefaultParallelism = 4
  val ShufflePartitions = 64

  def threads: Int = math.min(Threads, Runtime.getRuntime.availableProcessors)

  def create(scratch: File): SparkSession =
    SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.default.parallelism", DefaultParallelism.toString)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      // As the test and bench sessions: joins take the shuffle path.
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.local.dir", new File(scratch, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(scratch, "spark-warehouse").getAbsolutePath)
      .getOrCreate()

  def describe(spark: SparkSession): Map[String, Any] = ListMap(
    "spark_master" -> spark.sparkContext.master,
    "default_parallelism" -> spark.sparkContext.defaultParallelism,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions").toInt,
    "nproc" -> Runtime.getRuntime.availableProcessors,
  )
}

final case class RunConfig(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
    tiny: Boolean = false, corruptReference: Boolean = false)

final case class Report(
    correct: Boolean,
    attempted: Int,
    failed: Int,
    endToEnd: Seq[Metric],
    perLayer: Seq[Metric],
    meta: Map[String, Any],
    spans: Seq[Span],
) {
  def errorRate: Double = failed.toDouble / attempted

  /** Every record: the metrics, then error_rate over the attempted queries. */
  def records(workload: String): Seq[Map[String, Any]] =
    (endToEnd ++ perLayer).map(_.record(workload)) :+ ListMap(
      "workload" -> workload, "metric" -> "error_rate", "unit" -> "ratio",
      "samples" -> attempted, "median" -> errorRate, "percentile" -> null)
}

/** Runs one workload: set-up, warm-up, then queries for the configured time.
  * Untraced runs give the end-to-end metrics; traced runs alternate
  * untraced and traced queries and give the per-layer metrics.
  */
final class Runner(spark: SparkSession, sessionSeconds: Double, cfg: RunConfig, scratch: File) {
  import Runner._

  private val w = cfg.workload
  private val sc = spark.sparkContext
  private val threadMx =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val untraced = new Tracer(false)
  private val traced = new Tracer(true)

  private var inputs: Map[String, DataFrame] = Map.empty
  private var expected: Seq[Seq[Double]] = Seq.empty
  private var firstExact: Option[Any] = None
  private var attempted = 0
  private var failed = 0

  private def gcMillis: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  private def fail(id: Int, why: String): Unit = {
    failed += 1
    Console.err.println(s"[perfbench] ${w.name} query $id failed: $why")
  }

  /** One query, checked against the reference and against the first query. */
  private def query(id: Int, tracer: Tracer): Option[Query] = {
    attempted += 1
    try {
      tracer.beginQuery(id, sc)
      val gc0 = gcMillis
      val alloc0 = threadMx.getCurrentThreadAllocatedBytes
      val t0 = System.nanoTime()
      val ex = tracer.span("query")(w.execute(spark, inputs, tracer))
      val seconds = (System.nanoTime() - t0) / 1e9
      val alloc = threadMx.getCurrentThreadAllocatedBytes - alloc0
      val gc = (gcMillis - gc0) / 1e3
      val got = tracer.span("check")(ex.collect())
      val problem = Reference.diff(expected, got, w.columns.map(w.tolerance))
        .map("output: " + _)
        .orElse(firstExact match {
          case None                     => firstExact = Some(ex.exact); None
          case Some(e) if e != ex.exact => Some("counters or leakage differ from the first query")
          case _                        => None
        })
      problem.foreach(fail(id, _))
      Some(Query(id, tracer.enabled, seconds, alloc, gc, ex))
    } catch {
      case NonFatal(e) => fail(id, e.toString); None
    }
  }

  def run(): Report = {
    // ---------------------------------------------------------------- set-up
    val t0 = System.nanoTime()
    val generated = w.inputs(spark, cfg.seed, cfg.tiny).map { case (n, df) => n -> df.cache() }
    val rows = generated.map { case (n, df) => n -> df.count() }
    val inputsS = (System.nanoTime() - t0) / 1e9
    inputs = generated.toMap
    val t1 = System.nanoTime()
    val refDir = new File(scratch, s"reference-${w.name}-${cfg.seed}")
    expected = Reference.compute(generated, w.referenceSql, w.columns, refDir)
    val referenceS = (System.nanoTime() - t1) / 1e9
    deleteRecursively(refDir)
    if (cfg.corruptReference) expected = corrupt(expected)

    var nextId = 0
    def next(tracer: Tracer): Option[Query] = { val q = query(nextId, tracer); nextId += 1; q }

    val tw = System.nanoTime()
    def warmS = (System.nanoTime() - tw) / 1e9
    val warm = ArrayBuffer.empty[Query]
    if (cfg.tiny) next(untraced)
    else while (nextId < MinWarmup || warmS < MinWarmupSeconds ||
        (nextId < MaxWarmup && !steady(warm.map(_.seconds).toSeq)))
      warm ++= next(untraced)
    val warmupS = warmS
    val warmQueries = nextId

    // -------------------------------------------------------------- measure
    val jobs = new SparkJobs
    if (cfg.trace) sc.addSparkListener(jobs)
    val queries = ArrayBuffer.empty[Query]
    val tm = System.nanoTime()
    var pairs = 0
    while ((System.nanoTime() - tm) / 1e9 < cfg.seconds || pairs < MinSamples) {
      queries ++= next(untraced)
      if (cfg.trace) queries ++= next(traced)
      pairs += 1
    }
    sc.setLocalProperty(SparkJobs.QueryProperty, null)
    val side = if (cfg.trace) w.sidecar(spark, inputs) else None
    if (cfg.trace) sc.removeSparkListener(jobs)
    inputs.values.foreach(_.unpersist(blocking = true))

    // -------------------------------------------------------------- metrics
    val plain = queries.filterNot(_.traced).toSeq
    val endToEnd = Seq(
      Metric("query_s", "s", plain.map(_.seconds)),
      Metric("reported_s", "s", plain.map(_.ex.reportedSeconds)),
      Metric("mpc_modeled_s", ModeledUnit, plain.map(_.ex.modeledSeconds)),
      Metric("frontier_rows", "rows", plain.map(_.ex.frontierRows.toDouble)),
      Metric("alloc_mb", "MB", plain.map(_.allocBytes / 1e6)),
      Metric("setup_s", "s", Seq(sessionSeconds + inputsS + referenceS + warmupS)),
    )
    val setup = Seq(
      Metric("setup.session_s", "s", Seq(sessionSeconds)),
      Metric("setup.inputs_s", "s", Seq(inputsS)),
      Metric("setup.reference_s", "s", Seq(referenceS)),
      Metric("setup.warmup_s", "s", Seq(warmupS)),
      Metric("setup.warmup_queries", "count", Seq(warmQueries.toDouble)),
    )
    val tracedQs = queries.filter(_.traced).toSeq
    val perLayer = if (cfg.trace) layers(side, tracedQs, plain, jobs) ++ setup else Seq.empty
    val jobSpans = if (cfg.trace) tracedQs.flatMap(q => jobs.jobSpans(sc, q.id)) else Seq.empty

    val meta = ListMap[String, Any](
      "workload" -> w.name,
      "seed" -> cfg.seed,
      "tiny" -> cfg.tiny,
      "seconds" -> cfg.seconds,
      "trace" -> cfg.trace,
      "input_rows" -> ListMap(rows: _*),
      "warmup_query_s" -> warm.map(_.seconds).toSeq,
      "warmup_alloc_mb" -> warm.map(_.allocBytes / 1e6).toSeq,
    ) ++ Session.describe(spark) ++ side.map("note" -> _.note)

    Report(failed == 0 && queries.nonEmpty, attempted, failed, endToEnd,
      perLayer, meta, traced.spans.toSeq ++ jobSpans)
  }

  /** Per-layer metrics from the traced queries (and the sidecar where the
    * query's entry point hides a layer).
    */
  private def layers(side: Option[Sidecar], tq: Seq[Query], plain: Seq[Query], jobs: SparkJobs): Seq[Metric] = {
    def spans(q: Query, name: String): Seq[Span] = traced.spans.filter(s => s.query == q.id && s.name == name).toSeq
    def spanS(name: String): Seq[Double] = tq.flatMap(spans(_, name)).map(_.seconds)

    // The sidecar's MPC leg must be the query's MPC leg.
    side.map(_.mpc).filter(m => m.frontierRows != tq.head.ex.frontierRows ||
        m.modeledSeconds != tq.head.ex.modeledSeconds)
      .foreach(_ => fail(tq.head.id, "sidecar MPC leg differs from the query's"))
    // Simulator time per traced query, or once from the sidecar's MPC leg.
    def mpcRealOf(q: Query): Double = side.fold(q.ex.mpcRealSeconds)(_.mpc.mpcRealSeconds)
    val mpcReal = side.fold(tq.map(_.ex.mpcRealSeconds))(s => Seq(s.mpc.mpcRealSeconds))
    val jobSpans = tq.map(q => jobs.jobSpans(sc, q.id))
    val tasks = tq.map(q => jobs.taskTotals(sc, q.id))
    val executorSelf = tq.zip(jobSpans).flatMap { case (q, js) =>
      spans(q, "executor.run").map(s => s.seconds - SparkJobs.coveredSeconds(js, s) - mpcRealOf(q))
    }
    val checkSelf = tq.zip(jobSpans).flatMap { case (q, js) =>
      spans(q, "check").map(s => s.seconds - SparkJobs.coveredSeconds(js, s))
    }
    // Where the query's entry point builds and compiles internally, the
    // sidecar's own build and compile stand in.
    val build = side.fold(spanS("dsl.build"))(s => Seq(s.buildSeconds))
    val compile = side.fold(spanS("core.compile"))(s => Seq(s.compileSeconds))

    val ex = side.fold(tq.head.ex)(_.mpc)
    val cost: CostSnapshot = ex.cost.get
    val leaks = ex.leakage.get.values.sum
    val primitives = cost.eqs + cost.cmps + cost.muls + cost.shuffledElems
    val plan = ex.plan.get
    val nodes = plan.dag.topo
    import repro.core.OpKind._
    Seq(
      Metric("dsl.build_s", "s", build),
      Metric("core.compile_s", "s", compile),
      Metric("core.mpc_nodes", "count", Seq(plan.mpcNodes.size.toDouble)),
      Metric("core.hybrid_nodes", "count", Seq(nodes.count(n => n.kind match {
        case _: HybridJoin | _: HybridAgg | _: PublicJoin => true
        case _                                            => false
      }).toDouble)),
      Metric("core.presorted_nodes", "count", Seq(nodes.count(_.preSorted).toDouble)),
      Metric("core.stages", "count", Seq(plan.stages.size.toDouble)),
      Metric("executor.run_s", "s", spanS("executor.run")),
      Metric("executor.cleartext_s", "s", tq.map(_.ex.cleartextSeconds)),
      Metric("executor.mpc_real_s", "s", mpcReal),
      Metric("executor.self_s", "s", executorSelf),
      Metric("check.self_s", "s", checkSelf),
      Metric("spark.jobs", "count", jobSpans.map(_.size.toDouble)),
      Metric("spark.tasks", "count", tasks.map(_.count.toDouble)),
      Metric("spark.task_run_s", "s", tasks.map(_.runMs / 1e3)),
      Metric("spark.job_busy_s", "s", jobSpans.map(SparkJobs.unionSeconds)),
      Metric("spark.shuffle_write_mb", "MB", tasks.map(_.shuffleWriteBytes / 1e6)),
      Metric("spark.result_mb", "MB", tasks.map(_.resultBytes / 1e6)),
      Metric("mpc.rows_touched", "count", Seq(cost.rowsTouched.toDouble)),
      Metric("mpc.eqs", "count", Seq(cost.eqs.toDouble)),
      Metric("mpc.cmps", "count", Seq(cost.cmps.toDouble)),
      Metric("mpc.muls", "count", Seq(cost.muls.toDouble)),
      Metric("mpc.rounds", "count", Seq(cost.rounds.toDouble)),
      Metric("mpc.shuffled_elems", "count", Seq(cost.shuffledElems.toDouble)),
      Metric("mpc.primitives", "count", Seq(primitives.toDouble)),
      Metric("mpc.ns_per_primitive", "ns",
        mpcReal.map(m => if (primitives == 0) 0.0 else m * 1e9 / primitives)),
      Metric("mpc.leak_events", "count", Seq(leaks.toDouble)),
      Metric("jvm.gc_s", "s", (tq ++ plain).map(_.gcSeconds)),
      Metric("trace.overhead_s", "s",
        Seq(Metric.median(tq.map(_.seconds)) - Metric.median(plain.map(_.seconds)))),
    )
  }
}

object Runner {
  private final case class Query(id: Int, traced: Boolean, seconds: Double, allocBytes: Long,
      gcSeconds: Double, ex: Execution)

  /** Warm-up runs at least this many queries and seconds, then until the
    * last three queries are steady, up to `MaxWarmup` queries.
    */
  val MinWarmup = 3
  val MinWarmupSeconds = 5.0
  val MaxWarmup = 6
  /** Timed queries per run at least, so the slowest workload still gives a median of five. */
  val MinSamples = 5
  /** Modeled seconds are computed from executed primitive counts, not timed. */
  val ModeledUnit = "modeled_s"

  /** The last three warm-up queries lie within 15% of each other. */
  private def steady(xs: Seq[Double]): Boolean =
    xs.length >= 3 && { val l = xs.takeRight(3); l.max <= 1.15 * l.min }

  /** A deliberately wrong reference: the first value of the first row is off by one. */
  private def corrupt(rows: Seq[Seq[Double]]): Seq[Seq[Double]] =
    rows.zipWithIndex.map { case (r, i) => if (i == 0) (r.head + 1.0) +: r.tail else r }

  def deleteRecursively(f: File): Unit = {
    Option(f.listFiles).foreach(_.foreach(deleteRecursively))
    f.delete()
  }
}
