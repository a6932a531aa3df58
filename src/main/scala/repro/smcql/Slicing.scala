package repro.smcql

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** SMCQL-style slicing on a public key column (Bater et al. [3], §7.4).
  *
  * The public key space is partitioned by *party presence*: keys whose rows
  * all reside at one party form local slices (processed entirely in the
  * clear at that party); keys with rows at both parties must be processed
  * under MPC. Slicing itself reveals only which public keys each party
  * holds — information the key column's public annotation already concedes.
  */
object Slicing {

  final case class Sliced(
      /** Keys present at both parties (must go to MPC). */
      sharedKeys: Set[Double],
      /** Per-party DataFrames restricted to single-party keys. */
      localParts: Seq[Map[String, DataFrame]],
      /** Per-party DataFrames restricted to shared keys. */
      sharedParts: Seq[Map[String, DataFrame]],
  )

  /** Slice the given per-party relations on `keyCol`.
    *
    * A NULL key has no slice: it fails, naming the column and the relation.
    *
    * @param partyRels one map of (relation name → DataFrame) per party
    */
  def slice(spark: SparkSession, partyRels: Seq[Map[String, DataFrame]], keyCol: String): Sliced = {
    val keySets: Seq[Set[Double]] = partyRels.map { rels =>
      val keys = rels.values
        .map(df => df.select(col(keyCol).cast("double")).distinct())
        .reduce(_ unionAll _)
        .distinct()
        .collect()
      if (keys.exists(_.isNullAt(0))) {
        val rel = rels.collectFirst {
          case (name, df) if !df.where(col(keyCol).cast("double").isNull).isEmpty => name
        }
        throw new IllegalArgumentException(
          s"NULL in column '$keyCol' of ${rel.getOrElse("?")}: a NULL key cannot be sliced")
      }
      keys.map(_.getDouble(0)).toSet
    }
    val shared = keySets.reduce(_ intersect _)
    // Semi/anti joins against a shared-keys relation scale to large inputs
    // (an `isin` literal list would blow up the expression tree). It is a
    // local relation, so it is not cached: a cache would outlive the slice.
    import spark.implicits._
    val sharedDf = shared.toSeq.toDF("__sk")
    def restrict(df: DataFrame, in: Boolean): DataFrame =
      df.join(sharedDf, col(keyCol).cast("double") === col("__sk"),
        if (in) "left_semi" else "left_anti")
    Sliced(
      shared,
      partyRels.map(_.map { case (n, df) => n -> restrict(df, in = false) }),
      partyRels.map(_.map { case (n, df) => n -> restrict(df, in = true) }),
    )
  }
}
