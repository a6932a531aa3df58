package repro.queries

import repro.core._

/** Market concentration (HHI) query — paper §2.1, Listing 2, evaluated in
  * §7.1 (Fig. 4).
  *
  * Three vehicle-for-hire companies' trip books are concatenated; the query
  * filters zero-fare trips, aggregates revenue per company, computes each
  * company's market share against the total, and sums the squared shares
  * into the Herfindahl-Hirschman Index, revealed only to party A.
  *
  * Under the full Conclave pipeline, the projection and filter distribute
  * past the concat and the revenue aggregation splits into local Spark
  * pre-aggregations plus a tiny secondary MPC aggregation — only a few rows
  * per party ever enter MPC (§7.1).
  */
object MarketConcentration {

  val pA: Party = Party("a"); val pB: Party = Party("b"); val pC: Party = Party("c")
  val InputNames: Seq[String] = Seq("taxiA", "taxiB", "taxiC")
  val OutputName = "hhi"

  /** Build the query DAG. */
  def build(): Dag = {
    val q = new Dsl(new Dag)
    val rev = revenue(q)
    val market = rev.aggregate(Seq.empty, AggFn.Sum, Some("local_rev"), "total_rev")
    val share = rev.constCol("k", 1)
      .join(market.constCol("k", 1), Seq("k"), Seq("k"))
      .divide("m_share", "local_rev", "total_rev")
    val hhi = share
      .multiply("ms2", "m_share", "m_share")
      .aggregate(Seq.empty, AggFn.Sum, Some("ms2"), "hhi")
    hhi.writeTo(OutputName, pA)
    q.dag
  }

  /** The per-company revenue: the three trip books concatenated, zero fares
    * filtered, and revenue summed per company.
    */
  private def revenue(q: Dsl): q.Rel = {
    import q._
    val inA = table("taxiA", pA, col("companyID"), col("price"))
    val inB = table("taxiB", pB, col("companyID"), col("price"))
    val inC = table("taxiC", pC, col("companyID"), col("price"))
    concat(inA, inB, inC)
      .project("companyID", "price")
      .filter("price", CmpOp.Gt, 0)
      .sum(Seq("companyID"), over = "price", out = "local_rev")
  }

  /** Cleartext reference SQL over the union of the three inputs (for the
    * DuckDB oracle / insecure-Spark baseline).
    */
  val referenceSql: String =
    """WITH t AS (
      |  SELECT * FROM taxiA UNION ALL SELECT * FROM taxiB UNION ALL SELECT * FROM taxiC
      |), rev AS (
      |  SELECT companyID, SUM(CAST(price AS DOUBLE)) AS local_rev FROM t
      |  WHERE CAST(price AS DOUBLE) > 0 GROUP BY companyID
      |), m AS (SELECT SUM(local_rev) AS total_rev FROM rev)
      |SELECT SUM((rev.local_rev / m.total_rev) * (rev.local_rev / m.total_rev)) AS hhi
      |FROM rev, m
      |""".stripMargin

  /** Exact integer-valued intermediate (per-company revenue) used for the
    * bit-exact oracle check — the final HHI is a genuine fraction and is
    * checked with a tolerance instead.
    */
  val revenueSql: String =
    """SELECT companyID, SUM(CAST(price AS DOUBLE)) AS local_rev
      |FROM (SELECT * FROM taxiA UNION ALL SELECT * FROM taxiB UNION ALL SELECT * FROM taxiC)
      |WHERE CAST(price AS DOUBLE) > 0 GROUP BY companyID
      |""".stripMargin

  /** Variant of the query that stops at the per-company revenue relation —
    * everything under MPC is exact integers, so the oracle can diff it
    * bit-for-bit.
    */
  def buildRevenueOnly(): Dag = {
    val q = new Dsl(new Dag)
    revenue(q).writeTo("rev", pA)
    q.dag
  }
}
