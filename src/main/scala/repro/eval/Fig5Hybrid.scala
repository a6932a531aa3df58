package repro.eval

import repro.core.{AggFn, Party}
import repro.mpc._

/** Table T3 (paper Fig. 5): hybrid operator microbenchmarks.
  *
  * T3a compares the standard MPC join against Conclave's hybrid join and
  * public join; T3b compares the MPC aggregation against the hybrid
  * aggregation. Input sizes are records *per party* (two contributing
  * parties for joins, matching §7.2's setup); all runs use the
  * secret-sharing backend, with an STP authorized via trust annotations.
  */
object Fig5Hybrid {

  private val pA = Party("a"); private val pB = Party("b"); private val pC = Party("c")
  private val parties = Set(pA, pB, pC)

  val JoinSizes: Seq[Long] = Seq(1000, 10000, 50000, 200000)
  val AggSizes: Seq[Long] = Seq(1000, 10000, 50000, 200000)

  def runJoins(sizes: Seq[Long]): Seq[BenchPoint] =
    sizes.flatMap { n =>
      Seq(mpcJoin(n), hybridJoin(n), publicJoin(n))
    }

  def runAggs(sizes: Seq[Long]): Seq[BenchPoint] =
    sizes.flatMap { n =>
      Seq(mpcAgg(n), hybridAgg(n))
    }

  private def mkRows(n: Long, nKeys: Long, seed: Long): Seq[Seq[Double]] = {
    val rnd = new scala.util.Random(seed)
    (0L until n).map(_ => Seq((rnd.nextLong(nKeys) + 1).toDouble, rnd.nextInt(1000).toDouble))
  }

  private def mpcJoin(n: Long): BenchPoint = {
    if (n.toDouble * n * CostParams.Sharemind.eq > Bench.TimeoutSeconds)
      return BenchPoint("mpc-join", n, None, ">2h")
    val b = MpcBackend.sharemind(parties)
    b.join("j", b.closeRows("l", Seq("k", "x"), mkRows(n, n, 1)),
      b.closeRows("r", Seq("k", "y"), mkRows(n, n, 2)), Seq("k"), Seq("k"))
    BenchPoint("mpc-join", n, Some(b.meter.modeledSeconds))
  }

  private def hybridJoin(n: Long): BenchPoint = {
    val b = MpcBackend.sharemind(parties)
    b.hybridJoin("j", b.closeRows("l", Seq("k", "x"), mkRows(n, n, 1)),
      b.closeRows("r", Seq("k", "y"), mkRows(n, n, 2)), Seq("k"), Seq("k"), stp = pC)
    BenchPoint("hybrid-join", n, Some(b.meter.modeledSeconds))
  }

  private def publicJoin(n: Long): BenchPoint = {
    val b = MpcBackend.sharemind(parties)
    b.publicJoin("j", b.closeRows("l", Seq("k", "x"), mkRows(n, n, 1)),
      b.closeRows("r", Seq("k", "y"), mkRows(n, n, 2)), Seq("k"), Seq("k"), host = pA)
    BenchPoint("public-join", n, Some(b.meter.modeledSeconds))
  }

  private def mpcAgg(n: Long): BenchPoint = {
    if (Fig4MarketConc.estimateAggSeconds(n) > Bench.TimeoutSeconds)
      return BenchPoint("mpc-agg", n, None, ">2h")
    val b = MpcBackend.sharemind(parties)
    b.aggregate("a", b.closeRows("in", Seq("k", "v"), mkRows(n, math.max(1, n / 10), 3)),
      Seq("k"), Some("v"), AggFn.Sum, "s")
    BenchPoint("mpc-agg", n, Some(b.meter.modeledSeconds))
  }

  private def hybridAgg(n: Long): BenchPoint = {
    val b = MpcBackend.sharemind(parties)
    b.hybridAggregate("a", b.closeRows("in", Seq("k", "v"), mkRows(n, math.max(1, n / 10), 3)),
      Seq("k"), Some("v"), AggFn.Sum, "s", stp = pC)
    BenchPoint("hybrid-agg", n, Some(b.meter.modeledSeconds))
  }
}
