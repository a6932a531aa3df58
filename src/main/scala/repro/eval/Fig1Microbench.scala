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
  * oblivious operations; points whose predicted dominant term alone exceeds
  * the paper's two-hour cap are reported as ">2h" without execution, and
  * garbled-circuit points beyond the simulated memory ceiling as "OOM" —
  * matching how the paper's own curves end.
  */
object Fig1Microbench {

  private val parties = Set(Party("a"), Party("b"), Party("c"))

  sealed trait OpKindT { def name: String }
  case object AggOp extends OpKindT { val name = "aggregation" }
  case object JoinOp extends OpKindT { val name = "join" }
  case object ProjectOp extends OpKindT { val name = "projection" }

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

  /** A lower bound on an MPC point's modeled seconds: the aggregation's
    * sorting network, the join's equality tests, the projection's row
    * touches.
    */
  private[eval] def predicted(params: CostParams, op: OpKindT, n: Long): Double = (op match {
    case AggOp     => CostModel.sort(params, n, width = 2, ascending = Seq(true))
    case JoinOp    => CostModel.cartesianJoin(params, n / 2, n - n / 2, keys = 1)
    case ProjectOp => CostModel.scan(params, n)
  }).modeledSeconds

  private def mpcPoint(sys: String, b: MpcBackend, op: OpKindT, n: Long): BenchPoint =
    Bench.capped(sys, n, predicted(b.meter.params, op, n)) {
      def rows(m: Long, nKeys: Long) = Bench.keyedRows(m, nKeys, seed = m * 31 + nKeys)
      op match {
        case AggOp =>
          b.aggregate("agg", b.closeRows("in", Seq("k", "v"), rows(n, math.max(1, n / 10))),
            Seq("k"), Some("v"), AggFn.Sum, "s")
        case JoinOp =>
          val l = rows(n / 2, math.max(1, n / 2))
          val r = rows(n - n / 2, math.max(1, n / 2))
          b.join("join", b.closeRows("l", Seq("k", "x"), l), b.closeRows("r", Seq("k", "y"), r),
            Seq("k"), Seq("k"))
        case ProjectOp =>
          b.project(b.closeRows("in", Seq("k", "v"), rows(n, math.max(1, n / 10))), Seq("k"))
      }
      b.meter.modeledSeconds
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
