package repro.perfbench

import java.util.Properties
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable.ArrayBuffer

/** One timed interval of a traced query. Times are epoch milliseconds (with
  * a fractional part), so benchmark spans and Spark's job times share a clock.
  */
final case class Span(query: Int, name: String, parent: String, startMs: Double, endMs: Double) {
  def seconds: Double = (endMs - startMs) / 1e3
}

/** Records spans around the calls into each layer. The untraced tracer runs
  * the same code path and records nothing.
  */
final class Tracer(val enabled: Boolean) {
  private val epochMs0 = System.currentTimeMillis().toDouble
  private val nano0 = System.nanoTime()
  val spans: ArrayBuffer[Span] = ArrayBuffer.empty
  private var query = -1
  private var stack: List[String] = Nil

  def nowMs: Double = epochMs0 + (System.nanoTime() - nano0) / 1e6

  /** Start a query: its spans, and the Spark jobs it runs, carry `id`. */
  def beginQuery(id: Int, sc: SparkContext): Unit = {
    query = id
    sc.setLocalProperty(SparkJobs.QueryProperty, if (enabled) id.toString else null)
  }

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val parent = stack.headOption.getOrElse("")
      stack = name :: stack
      val t0 = nowMs
      try body
      finally {
        spans += Span(query, name, parent, t0, nowMs)
        stack = stack.tail
      }
    }
}

/** Spark job spans and task counters, attributed to the query that ran them
  * through a local property set on the driver thread.
  */
final class SparkJobs extends SparkListener {
  import SparkJobs._

  private val jobs = scala.collection.mutable.LinkedHashMap.empty[Int, Job]
  private val stageQuery = scala.collection.mutable.HashMap.empty[Int, Int]
  private val tasks = scala.collection.mutable.HashMap.empty[Int, Tasks]

  private def queryOf(props: Properties): Int =
    Option(props).flatMap(p => Option(p.getProperty(SparkJobs.QueryProperty))).map(_.toInt).getOrElse(-1)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val q = queryOf(e.properties)
    jobs(e.jobId) = Job(q, e.jobId, e.time.toDouble)
    e.stageIds.foreach(stageQuery(_) = q)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time.toDouble)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val q = stageQuery.getOrElse(e.stageId, -1)
    val t = tasks.getOrElseUpdate(q, Tasks())
    t.count += 1
    Option(e.taskMetrics).foreach { m =>
      t.runMs += m.executorRunTime
      t.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      t.resultBytes += m.resultSize
    }
  }

  /** Job spans of query `q`, once Spark has delivered every event. */
  def jobSpans(sc: SparkContext, q: Int): Seq[Span] = {
    org.apache.spark.PerfbenchBus.drain(sc)
    synchronized {
      jobs.values.filter(_.query == q).map(j => Span(q, s"spark.job.${j.id}", "", j.startMs, j.endMs)).toSeq
    }
  }

  def taskTotals(sc: SparkContext, q: Int): Tasks = {
    org.apache.spark.PerfbenchBus.drain(sc)
    synchronized(tasks.getOrElse(q, Tasks()).copy())
  }
}

object SparkJobs {
  val QueryProperty = "perfbench.query"

  final case class Job(query: Int, id: Int, startMs: Double, var endMs: Double = Double.NaN)
  final case class Tasks(var count: Long = 0, var runMs: Long = 0, var shuffleWriteBytes: Long = 0,
      var resultBytes: Long = 0)

  /** Seconds covered by the union of `spans`. */
  def unionSeconds(spans: Seq[Span]): Double = {
    var total = 0.0
    var end = Double.NegativeInfinity
    spans.sortBy(_.startMs).foreach { s =>
      total += math.max(0.0, s.endMs - math.max(s.startMs, end))
      end = math.max(end, s.endMs)
    }
    total / 1e3
  }

  /** Seconds of `within` covered by the union of `spans`. */
  def coveredSeconds(spans: Seq[Span], within: Span): Double =
    unionSeconds(spans.map(s =>
      s.copy(startMs = math.max(s.startMs, within.startMs), endMs = math.min(s.endMs, within.endMs))))
}
