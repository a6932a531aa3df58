package repro.queries

import repro.core._

/** Comorbidity query from the SMCQL paper, evaluated in §7.4 (Fig. 7b).
  *
  * Two hospitals hold horizontal partitions of `diagnoses`; the query counts
  * diagnoses per (private) diagnosis code and reveals the ten most common.
  *
  * Both Conclave and SMCQL split the aggregation into local pre-counts plus
  * an MPC combine (the split leaks per-party distinct-key counts — neither
  * system pads, so runtime depends on the distinct-key ratio); the order-by
  * and limit must run under MPC. The performance difference in the paper is
  * purely the MPC backend: Sharemind (Conclave) vs. ObliVM (SMCQL).
  */
object Comorbidity {

  val pH1: Party = Party("h1"); val pH2: Party = Party("h2")
  val InputNames: Seq[String] = Seq("cdiag1", "cdiag2")
  val OutputName = "comorbidity"
  val TopK = 10

  def build(): Dag = {
    val q = new Dsl(new Dag)
    counts(q)
      .sortBy("cnt", ascending = false)
      .limit(TopK)
      .writeTo(OutputName, pH1)
    q.dag
  }

  /** The diagnosis counts over both hospitals' diagnoses. */
  private def counts(q: Dsl): q.Rel = {
    import q._
    val d1 = table("cdiag1", pH1, col("patient"), col("diag"))
    val d2 = table("cdiag2", pH2, col("patient"), col("diag"))
    concat(d1, d2)
      .project("diag")
      .count(Seq("diag"), out = "cnt")
  }

  /** Cleartext reference. Ties at the cut-off make a bare LIMIT ambiguous,
    * so the oracle compares the full sorted count relation instead and tests
    * assert the top-k cut separately.
    */
  val referenceSqlCounts: String =
    """SELECT diag, CAST(COUNT(*) AS DOUBLE) AS cnt
      |FROM (SELECT * FROM cdiag1 UNION ALL SELECT * FROM cdiag2)
      |GROUP BY diag
      |""".stripMargin

  /** Variant without the order-by/limit, for bit-exact oracle checking. */
  def buildCountsOnly(): Dag = {
    val q = new Dsl(new Dag)
    counts(q).writeTo("counts", pH1)
    q.dag
  }
}
