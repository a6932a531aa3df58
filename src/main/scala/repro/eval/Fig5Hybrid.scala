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

  /** The modeled seconds of `op` on a fresh Sharemind backend. */
  private def modeled(op: MpcBackend => Any): Double = {
    val b = MpcBackend.sharemind(parties)
    op(b)
    b.meter.modeledSeconds
  }

  def runJoins(sizes: Seq[Long]): Seq[BenchPoint] =
    sizes.flatMap { n =>
      def join(op: (MpcBackend, SharedRelation, SharedRelation) => Any): Double = modeled { b =>
        op(b, b.closeRows("l", Seq("k", "x"), Bench.keyedRows(n, n, 1)),
          b.closeRows("r", Seq("k", "y"), Bench.keyedRows(n, n, 2)))
      }
      Seq(
        Bench.capped("mpc-join", n, mpcJoinPredicted(n)) {
          join(_.join("j", _, _, Seq("k"), Seq("k")))
        },
        BenchPoint("hybrid-join", n, Some(join(_.hybridJoin("j", _, _, Seq("k"), Seq("k"), stp = pC)))),
        BenchPoint("public-join", n, Some(join(_.publicJoin("j", _, _, Seq("k"), Seq("k"))))))
    }

  def runAggs(sizes: Seq[Long]): Seq[BenchPoint] =
    sizes.flatMap { n =>
      def agg(op: (MpcBackend, SharedRelation) => Any): Double = modeled { b =>
        op(b, b.closeRows("in", Seq("k", "v"), Bench.keyedRows(n, math.max(1, n / 10), 3)))
      }
      Seq(
        Bench.capped("mpc-agg", n, mpcAggPredicted(n)) {
          agg(_.aggregate("a", _, Seq("k"), Some("v"), AggFn.Sum, "s"))
        },
        BenchPoint("hybrid-agg", n,
          Some(agg(_.hybridAggregate("a", _, Seq("k"), Some("v"), AggFn.Sum, "s", stp = pC)))))
    }

  /** A lower bound on the MPC join's modeled seconds: its n·n equality tests. */
  private[eval] def mpcJoinPredicted(n: Long): Double =
    CostModel.cartesianJoin(CostParams.Sharemind, n, n, keys = 1).modeledSeconds

  /** A lower bound on the MPC aggregation's modeled seconds: its sorting network. */
  private[eval] def mpcAggPredicted(n: Long): Double =
    CostModel.sort(CostParams.Sharemind, n, width = 2, ascending = Seq(true)).modeledSeconds
}
