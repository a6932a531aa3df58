package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.mpc.{MpcBackend, MpcOutOfMemory}

/** One measured cell of a reproduced table: a (system, input size) pair with
  * its runtime, or a note explaining why it has none (simulated OOM, or a
  * modeled runtime beyond the paper's two-hour experiment cap).
  */
final case class BenchPoint(system: String, size: Long, seconds: Option[Double],
    note: String = "") {
  def cell: String = seconds match {
    case Some(s) if note.nonEmpty => f"$s%.1f ($note)"
    case Some(s)                  => f"$s%.1f"
    case None                     => note
  }
}

object Bench {

  /** The paper stops experiments at two hours; so do we (on modeled time). */
  val TimeoutSeconds: Double = 7200.0

  /** One point under the two-hour cap. When `predicted` (a lower bound on
    * the run's modeled seconds, from `CostModel`) already exceeds the cap,
    * the point is `>2h` without running; otherwise `run` gives its seconds,
    * `>2h` past the cap, and a simulated out-of-memory gives `OOM`.
    */
  def capped(system: String, size: Long, predicted: Double)(run: => Double): BenchPoint =
    if (predicted > TimeoutSeconds) BenchPoint(system, size, None, ">2h")
    else
      try {
        val s = run
        if (s > TimeoutSeconds) BenchPoint(system, size, None, ">2h")
        else BenchPoint(system, size, Some(s))
      } catch {
        case _: MpcOutOfMemory => BenchPoint(system, size, None, "OOM")
      }

  /** `n` rows (k, v) of uniform keys in 1..nKeys and payloads in 0..999. */
  def keyedRows(n: Long, nKeys: Long, seed: Long): Seq[Seq[Double]] = {
    val rnd = new scala.util.Random(seed)
    (0L until n).map(_ => Seq((rnd.nextLong(nKeys) + 1).toDouble, rnd.nextInt(1000).toDouble))
  }

  /** Render points as a size × system table (sizes ascending). */
  def table(title: String, points: Seq[BenchPoint]): String = {
    val systems = points.map(_.system).distinct
    val sizes = points.map(_.size).distinct.sorted
    val byKey = points.map(p => (p.system, p.size) -> p).toMap
    val header = ("%-12s".format("rows") +: systems.map("%-22s".format(_))).mkString
    val rows = sizes.map { sz =>
      ("%-12d".format(sz) +: systems.map { sys =>
        "%-22s".format(byKey.get((sys, sz)).map(_.cell).getOrElse("—"))
      }).mkString
    }
    (s"### $title" +: header +: rows).mkString("\n")
  }

  /** Wall-clock a cleartext (Spark) action. */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Compile and execute a Conclave query on a backend over the query's
    * parties, returning the reported runtime (real cleartext seconds +
    * modeled MPC seconds).
    */
  def runConclave(
      spark: SparkSession,
      dag: Dag,
      config: CompileConfig,
      inputs: Map[String, DataFrame],
      backend: Set[Party] => MpcBackend = MpcBackend.sharemind(_),
  ): ExecResult = {
    val plan = Compiler.compile(dag, config)
    new Executor(spark, backend(plan.dag.parties)).run(plan, inputs)
  }
}
