package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic equivalents of the paper's evaluation datasets (see DESIGN.md,
  * "Substitutions"). All values are integer-valued doubles so MPC fixed-point
  * arithmetic round-trips exactly against the DuckDB oracle, and all
  * generators are deterministic in (size, seed).
  */
object Generators {

  /** Every generated relation has this many partitions. Spark's `rand(seed)`
    * seeds each partition on its own, so a partition count that followed the
    * machine's cores would make the data follow them too.
    */
  val Partitions = 4

  /** Share of each party's patient ids that the other party's range also
    * covers (2% in the paper's aspirin-count setup, §7.4).
    */
  val Overlap = 0.02

  /** Distinct diagnosis keys per comorbidity input row (10% in §7.4). */
  val DistinctFrac = 0.1

  /** NYC-taxi-like trip fares for the market concentration query (§7.1).
    * Columns: companyID (1..nCompanies), price in whole cents. ~1% of trips
    * have a zero fare (the query filters them, as the paper's prep did).
    */
  def taxiTrips(spark: SparkSession, rows: Long, nCompanies: Int = 5, seed: Long = 11): DataFrame = {
    spark.range(0, rows, 1, Partitions).select(
      (rand(seed) * nCompanies + 1).cast(IntegerType).cast(DoubleType) as "companyID",
      when(rand(seed + 1) < 0.01, 0.0)
        .otherwise((rand(seed + 2) * 4000 + 250).cast(IntegerType).cast(DoubleType)) as "price",
    )
  }

  /** Government demographics for the credit-card regulation query (§7.3):
    * one row per SSN in 1..rows, each with a ZIP code.
    */
  def demographics(spark: SparkSession, rows: Long, nZips: Int = 50, seed: Long = 21): DataFrame = {
    spark.range(1, rows + 1, 1, Partitions).select(
      col("id").cast(DoubleType) as "ssn",
      ((rand(seed) * nZips).cast(IntegerType) + 10001).cast(DoubleType) as "zip",
    )
  }

  /** One credit agency's score book: SSNs sampled from 1..ssnUniverse (so a
    * fraction of SSNs match the regulator's demographics), scores 300..850.
    */
  def creditScores(spark: SparkSession, rows: Long, ssnUniverse: Long, seed: Long): DataFrame = {
    spark.range(0, rows, 1, Partitions).select(
      (rand(seed) * ssnUniverse + 1).cast(LongType).cast(DoubleType) as "ssn",
      (rand(seed + 1) * 551 + 300).cast(IntegerType).cast(DoubleType) as "score",
    )
  }

  /** HealthLNK-like diagnoses for the SMCQL queries (§7.4).
    *
    * Patient IDs are drawn from a per-party range of `rows` ids that overlaps
    * the other party's range by `overlap`: party 0 draws from [1, rows],
    * party 1 from [rows − overlap·rows + 1, 2·rows − overlap·rows].
    * `diag` codes are 1..nCodes; code 1 plays the role of the target
    * diagnosis (heart disease / c. diff).
    */
  def diagnoses(spark: SparkSession, rows: Long, party: Int, overlap: Double = Overlap,
      nCodes: Int = 25, seed: Long = 31): DataFrame = {
    val offset = if (party == 0) 0L else rows - math.round(rows * overlap)
    spark.range(0, rows, 1, Partitions).select(
      ((rand(seed + party) * rows).cast(LongType) + 1 + offset).cast(DoubleType) as "patient",
      (rand(seed + party + 2) * nCodes + 1).cast(IntegerType).cast(DoubleType) as "diag",
      (rand(seed + party + 4) * 3650 + 1).cast(IntegerType).cast(DoubleType) as "dtime",
    )
  }

  /** HealthLNK-like medications, same patient-ID scheme as [[diagnoses]].
    * Med code 1 plays the role of aspirin.
    */
  def medications(spark: SparkSession, rows: Long, party: Int, overlap: Double = Overlap,
      nCodes: Int = 25, seed: Long = 41): DataFrame = {
    val offset = if (party == 0) 0L else rows - math.round(rows * overlap)
    spark.range(0, rows, 1, Partitions).select(
      ((rand(seed + party) * rows).cast(LongType) + 1 + offset).cast(DoubleType) as "patient",
      (rand(seed + party + 2) * nCodes + 1).cast(IntegerType).cast(DoubleType) as "med",
      (rand(seed + party + 4) * 3650 + 1).cast(IntegerType).cast(DoubleType) as "mtime",
    )
  }

  /** Comorbidity-style diagnoses: `distinctFrac` controls the distinct-key
    * ratio of the diag column, which determines how much data enters MPC
    * after the aggregation split.
    */
  def comorbidityDiagnoses(spark: SparkSession, rows: Long, party: Int,
      distinctFrac: Double = DistinctFrac, seed: Long = 51): DataFrame = {
    val nKeys = math.max(1L, math.round(rows * distinctFrac))
    spark.range(0, rows, 1, Partitions).select(
      (rand(seed + party) * rows * 10 + 1).cast(LongType).cast(DoubleType) as "patient",
      (rand(seed + party + 2) * nKeys + 1).cast(LongType).cast(DoubleType) as "diag",
    )
  }

  /** Uniform-random integer keyed rows for the §2.3 / §7.2 microbenchmarks:
    * columns k (1..nKeys) and v (integer payload).
    */
  def keyed(spark: SparkSession, rows: Long, nKeys: Long, seed: Long = 61): DataFrame = {
    spark.range(0, rows, 1, Partitions).select(
      (rand(seed) * nKeys + 1).cast(LongType).cast(DoubleType) as "k",
      (rand(seed + 1) * 1000 + 1).cast(IntegerType).cast(DoubleType) as "v",
    )
  }
}
