package repro.perfbench

import java.io.{File, PrintWriter}
import java.nio.charset.StandardCharsets
import scala.collection.immutable.ListMap

/** Benchmark entry point, normally started by `perfbench/run.py`:
  *
  * {{{
  * Main --workload hhi --seed 1 --seconds 10 --trace 0
  * }}}
  *
  * Prints one JSON record per metric, then, as its last line, the result
  * object: end-to-end metrics with `--trace 0`, per-layer metrics with
  * `--trace 1`. Records, meta data and spans are also written to the
  * scratch directory (`-Dperfbench.scratch`, default `.bench_build`).
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val workload = Workload.byName(arg("workload"))
      .getOrElse(usage(s"unknown workload ${arg("workload")}; one of ${Workload.all.map(_.name).mkString(", ")}"))
    val cfg = RunConfig(workload, arg("seed").toLong, arg("seconds").toDouble, arg("trace") == "1")
    val scratch = new File(sys.props.getOrElse("perfbench.scratch", ".bench_build")).getAbsoluteFile
    scratch.mkdirs()

    val t0 = System.nanoTime()
    val spark = Session.create(scratch)
    val sessionS = (System.nanoTime() - t0) / 1e9
    val report =
      try new Runner(spark, sessionS, cfg, scratch).run()
      finally spark.stop()

    val meta = report.meta ++ ListMap(
      "commit" -> sys.props.getOrElse("perfbench.commit", "unknown"),
      "source_digest" -> sys.props.getOrElse("perfbench.digest", "unknown"))
    val records = report.records(workload.name)
    val stem = s"${workload.name}-seed${cfg.seed}-trace${if (cfg.trace) 1 else 0}"
    write(new File(scratch, s"results/$stem.json"),
      Json(ListMap("meta" -> meta, "records" -> records)))
    if (cfg.trace)
      write(new File(scratch, s"traces/$stem.jsonl"), report.spans.map(s => Json(ListMap(
        "query" -> s.query, "name" -> s.name, "parent" -> s.parent,
        "start_ms" -> s.startMs, "end_ms" -> s.endMs))).mkString("", "\n", "\n"))

    println(Json(ListMap("meta" -> meta)))
    records.foreach(r => println(Json(r)))
    val shown = if (cfg.trace) report.perLayer else report.endToEnd
    println(Json(ListMap(
      "correct" -> report.correct,
      "attempted" -> report.attempted,
      "failed" -> report.failed,
      "metrics" -> ListMap(shown.map(m => m.name -> ListMap("value" -> m.median, "unit" -> m.unit)): _*))))
  }

  private def write(f: File, text: String): Unit = {
    f.getParentFile.mkdirs()
    val out = new PrintWriter(f, StandardCharsets.UTF_8)
    try out.write(text) finally out.close()
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg")
    sys.exit(2)
  }
}
