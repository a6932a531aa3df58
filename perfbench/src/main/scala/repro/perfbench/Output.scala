package repro.perfbench

/** One reported metric: the median of its samples, and the highest
  * percentile that has at least ten samples beyond it (none below 11).
  */
final case class Metric(name: String, unit: String, samples: Seq[Double]) {
  require(samples.nonEmpty, s"metric $name has no samples")
  private lazy val sorted = samples.sorted

  def median: Double = Metric.median(samples)

  /** (percentile, value) by nearest rank, if the sample supports one. */
  def tail: Option[(Int, Double)] = {
    val n = sorted.length
    val p = math.floor(100.0 * (1.0 - 10.0 / n)).toInt
    if (p < 50) None else Some(p -> sorted(math.ceil(p / 100.0 * n).toInt - 1))
  }

  def record(workload: String): Map[String, Any] = scala.collection.immutable.ListMap(
    "workload" -> workload, "metric" -> name, "unit" -> unit, "samples" -> samples.length,
    "median" -> median,
    "percentile" -> tail.map { case (p, v) => Map("p" -> p, "value" -> v) }.orNull,
    "values" -> samples,
  )
}

object Metric {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}

/** Minimal JSON writer for the benchmark's records (ASCII-escaped output). */
object Json {
  def apply(v: Any): String = v match {
    case null                     => "null"
    case s: String                => quote(s)
    case b: Boolean               => b.toString
    case d: Double                => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int                   => n.toString
    case n: Long                  => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]          => xs.map(apply).mkString("[", ", ", "]")
    case other                    => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' || c > '~' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
}
