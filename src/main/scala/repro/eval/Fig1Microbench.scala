package repro.eval

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.{AggFn, Party}
import repro.data.Generators
import repro.mpc._

/** Table T1 (paper Fig. 1): single-operator microbenchmarks — aggregation,
  * join, projection — on the secret-sharing backend ("sharemind"), the
  * garbled-circuit backend ("obliv-c"), and insecure cleartext Spark.
  *
  * MPC numbers are the cost model's modeled seconds over actually-executed
  * oblivious operations; points whose dominant term alone exceeds the
  * paper's two-hour cap are reported as ">2h" without execution, and
  * garbled-circuit points beyond the simulated memory ceiling as "OOM" —
  * matching how the paper's own curves end.
  */
object Fig1Microbench {

  private val parties = Set(Party("a"), Party("b"), Party("c"))

  sealed trait OpKindT { def name: String }
  case object AggOp extends OpKindT { val name = "aggregation" }
  case object JoinOp extends OpKindT { val name = "join" }
  case object ProjectOp extends OpKindT { val name = "projection" }

  /** Default sizes per operator (aggregate record count, as in Fig. 1). */
  val AggSizes: Seq[Long] = Seq(1000, 3000, 10000, 30000, 100000, 1000000)
  val JoinSizes: Seq[Long] = Seq(300, 1000, 3000, 10000, 30000, 100000)
  val ProjectSizes: Seq[Long] = Seq(10000, 100000, 300000, 1000000, 3000000)
  val SparkSizes: Seq[Long] = Seq(10000, 100000, 1000000, 10000000, 30000000)

  def run(spark: SparkSession, op: OpKindT, mpcSizes: Seq[Long], sparkSizes: Seq[Long])
      : Seq[BenchPoint] = {
    val mpc = mpcSizes.flatMap { n =>
      Seq(
        mpcPoint("sharemind", MpcBackend.sharemind(parties), op, n),
        mpcPoint("obliv-c", MpcBackend.oblivc(parties), op, n))
    }
    val clear = sparkSizes.map(n => sparkPoint(spark, op, n))
    mpc ++ clear
  }

  /** Cheap dominant-term estimate, to honor the 2-hour cap without running. */
  private def estimate(params: CostParams, op: OpKindT, n: Long): Double = {
    def exchanges(m: Long): Double = {
      if (m <= 1) return 0.0
      var p = 1L; while (p < m) p <<= 1
      val log = java.lang.Long.numberOfTrailingZeros(p).toDouble
      p / 4.0 * log * (log + 1)
    }
    val gatePerExchange = 64.0 * 8 // cmp + eq + row muxes
    op match {
      case AggOp =>
        if (params.gate > 0) exchanges(n) * gatePerExchange * params.gate
        else exchanges(n) * params.cmp
      case JoinOp =>
        val pairs = (n / 2.0) * (n / 2.0)
        if (params.gate > 0) pairs * 64 * 3 * params.gate else pairs * params.eq
      case ProjectOp => n * params.rowTouch
    }
  }

  private def mpcPoint(sys: String, b: MpcBackend, op: OpKindT, n: Long): BenchPoint = {
    if (estimate(b.meter.params, op, n) > Bench.TimeoutSeconds)
      return BenchPoint(sys, n, None, ">2h")
    try {
      op match {
        case AggOp =>
          val rows = mkRows(n, nKeys = math.max(1, n / 10))
          b.aggregate("agg", b.closeRows("in", Seq("k", "v"), rows), Seq("k"), Some("v"),
            AggFn.Sum, "s")
        case JoinOp =>
          val l = mkRows(n / 2, nKeys = math.max(1, n / 2))
          val r = mkRows(n - n / 2, nKeys = math.max(1, n / 2))
          b.join("join", b.closeRows("l", Seq("k", "x"), l), b.closeRows("r", Seq("k", "y"), r),
            Seq("k"), Seq("k"))
        case ProjectOp =>
          val rows = mkRows(n, nKeys = math.max(1, n / 10))
          b.project(b.closeRows("in", Seq("k", "v"), rows), Seq("k"))
      }
      val s = b.meter.modeledSeconds
      if (s > Bench.TimeoutSeconds) BenchPoint(sys, n, None, ">2h")
      else BenchPoint(sys, n, Some(s))
    } catch {
      case _: MpcOutOfMemory => BenchPoint(sys, n, None, "OOM")
    }
  }

  private def mkRows(n: Long, nKeys: Long): Seq[Seq[Double]] = {
    val rnd = new scala.util.Random(n * 31 + nKeys)
    (0L until n).map(_ => Seq((rnd.nextLong(nKeys) + 1).toDouble, rnd.nextInt(1000).toDouble))
  }

  private def sparkPoint(spark: SparkSession, op: OpKindT, n: Long): BenchPoint = {
    val df = Generators.keyed(spark, n, math.max(1, n / 10)).cache()
    df.count() // materialize input outside the timed window
    val (_, secs) = Bench.timed {
      op match {
        case AggOp     => df.groupBy("k").agg(sum("v")).count()
        case JoinOp    =>
          val l = Generators.keyed(spark, n / 2, math.max(1, n / 2), seed = 62).cache()
          val r = Generators.keyed(spark, n - n / 2, math.max(1, n / 2), seed = 63).cache()
          l.count(); r.count()
          l.alias("l").join(r.alias("r"), col("l.k") === col("r.k")).count()
        case ProjectOp => df.select("k").count()
      }
    }
    df.unpersist()
    BenchPoint("spark", n, Some(secs))
  }
}
