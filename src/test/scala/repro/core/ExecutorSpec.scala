package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{lit, udf}
import repro.{Oracle, SparkSpec}
import repro.data.Generators
import repro.mpc.{MpcBackend, Oblivious}
import repro.queries._

/** End-to-end execution of compiled plans: results are diffed against DuckDB
  * (via [[repro.Oracle]]) or a cleartext Spark reference, for every
  * compilation mode (full rewrites, hybrid, MPC-only), plus leakage and
  * metrics checks.
  */
class ExecutorSpec extends SparkSpec {

  private val pA = Party("a"); private val pB = Party("b"); private val pC = Party("c")

  private def run(dag: Dag, config: CompileConfig, inputs: Map[String, DataFrame],
      parties: Set[Party]): ExecResult = {
    val plan = Compiler.compile(dag, config)
    new Executor(spark, MpcBackend.sharemind(parties)).run(plan, inputs)
  }

  private def firstDouble(df: DataFrame): Double = df.collect().head.getDouble(0)

  // ------------------------------------------------- small ad-hoc queries

  private def twoPartyKeyed(n: Int): Map[String, DataFrame] = Map(
    "t" -> Generators.keyed(spark, n, 10, seed = 1),
    "u" -> Generators.keyed(spark, n, 10, seed = 2),
  )

  test("cross-party grouped sum (split aggregation) matches DuckDB") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val t = table("t", pA, col("k"), col("v"))
    val u = table("u", pB, col("k"), col("v"))
    concat(t, u).sum(Seq("k"), "v", "s").writeTo("out", pA)
    val res = run(dag, CompileConfig.default, twoPartyKeyed(200), Set(pA, pB))
    Oracle.assertEquivalent(res.outputs("out"),
      "SELECT k, SUM(CAST(v AS DOUBLE)) AS s FROM (SELECT * FROM t UNION ALL SELECT * FROM u) GROUP BY k",
      "t" -> twoPartyKeyed(200)("t"), "u" -> twoPartyKeyed(200)("u"))
  }

  test("the same query under mpcOnly produces identical results") {
    val inputs = twoPartyKeyed(60)
    def build(): Dag = {
      val dag = new Dag
      val q = new Dsl(dag)
      import q._
      concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")))
        .sum(Seq("k"), "v", "s").writeTo("out", pA)
      dag
    }
    val full = run(build(), CompileConfig.default, inputs, Set(pA, pB))
    val mpc = run(build(), CompileConfig.mpcOnly, inputs, Set(pA, pB))
    Oracle.assertEquivalent(mpc.outputs("out"),
      "SELECT k, SUM(CAST(v AS DOUBLE)) AS s FROM (SELECT * FROM t UNION ALL SELECT * FROM u) GROUP BY k",
      "t" -> inputs("t"), "u" -> inputs("u"))
    assert(full.metrics.closedRows < mpc.metrics.closedRows,
      "push-down must shrink what enters MPC")
    assert(full.metrics.mpcModeledSeconds < mpc.metrics.mpcModeledSeconds)
  }

  test("a group-less COUNT(*) over columns nothing reads keeps its count and close sizes") {
    // Under mpcOnly nothing reads the concat's columns: it keeps its first,
    // which carries the row counts, and the closes share only that one.
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")))
      .count(Seq.empty, "n").writeTo("out", pA)
    val plan = Compiler.compile(dag, CompileConfig.mpcOnly)
    val cat = plan.dag.topo.find(_.kind == OpKind.Concat).get
    assert(plan.live(cat.id) == Seq("k"))
    val inputs = Map("t" -> Generators.keyed(spark, 30, 10, seed = 1),
      "u" -> Generators.keyed(spark, 17, 10, seed = 2))
    val res = new Executor(spark, MpcBackend.sharemind(Set(pA, pB))).run(plan, inputs)
    assert(firstDouble(res.outputs("out")) == 47.0)
    assert(res.leakage.cardinalities.map(c => c.relation -> c.rows) ==
      Seq(s"#${cat.id}@a" -> 30L, s"#${cat.id}@b" -> 17L))
  }

  test("cross-party join matches DuckDB") {
    val inputs = twoPartyKeyed(40)
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    table("t", pA, col("k"), col("v"))
      .join(table("u", pB, col("k"), col("v2")), Seq("k"), Seq("k"))
      .writeTo("out", pA)
    val in2 = Map("t" -> inputs("t"), "u" -> inputs("u").toDF("k", "v2"))
    val res = run(dag, CompileConfig.default, in2, Set(pA, pB))
    Oracle.assertEquivalent(res.outputs("out"),
      "SELECT t.k AS k, t.v AS v, u.v2 AS v2 FROM t JOIN u ON t.k = u.k",
      "t" -> in2("t"), "u" -> in2("u"))
  }

  test("filters, distinct and global count compose correctly under MPC") {
    val inputs = twoPartyKeyed(80)
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")))
      .filter("v", CmpOp.Leq, 500)
      .project("k")
      .distinct
      .aggregate(Seq.empty, AggFn.Count, None, "c")
      .writeTo("out", pA)
    // Distinct splitting + filters pushed down: still must match.
    val res = run(dag, CompileConfig.default, inputs, Set(pA, pB))
    Oracle.assertEquivalent(res.outputs("out"),
      "SELECT CAST(COUNT(DISTINCT k) AS DOUBLE) AS c FROM (SELECT * FROM t UNION ALL SELECT * FROM u) WHERE CAST(v AS DOUBLE) <= 500",
      "t" -> inputs("t"), "u" -> inputs("u"))
  }

  test("min and max aggregations match DuckDB") {
    val inputs = twoPartyKeyed(100)
    for ((fn, sql) <- Seq((AggFn.Min, "MIN"), (AggFn.Max, "MAX"))) {
      val dag = new Dag
      val q = new Dsl(dag)
      import q._
      concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")))
        .aggregate(Seq("k"), fn, Some("v"), "m").writeTo("out", pA)
      val res = run(dag, CompileConfig.default, inputs, Set(pA, pB))
      Oracle.assertEquivalent(res.outputs("out"),
        s"SELECT k, $sql(CAST(v AS DOUBLE)) AS m FROM (SELECT * FROM t UNION ALL SELECT * FROM u) GROUP BY k",
        "t" -> inputs("t"), "u" -> inputs("u"))
    }
  }

  test("single-party query runs fully in the clear (zero MPC)") {
    val inputs = twoPartyKeyed(100)
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    table("t", pA, col("k"), col("v")).filter("v", CmpOp.Gt, 100)
      .sum(Seq("k"), "v", "s").writeTo("out", pA)
    val res = run(dag, CompileConfig.default, inputs, Set(pA))
    assert(res.metrics.closedRows == 0L)
    assert(res.metrics.mpcModeledSeconds == 0.0)
    Oracle.assertEquivalent(res.outputs("out"),
      "SELECT k, SUM(CAST(v AS DOUBLE)) AS s FROM t WHERE CAST(v AS DOUBLE) > 100 GROUP BY k",
      "t" -> inputs("t"))
  }

  test("push-up: scalar multiply evaluated at the recipient still yields correct results") {
    val inputs = twoPartyKeyed(50)
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")))
      .aggregate(Seq.empty, AggFn.Sum, Some("v"), "s")
      .multiplyBy("s3", "s", 3.0)
      .writeTo("out", pC)
    val res = run(dag, CompileConfig.default, inputs, Set(pA, pB, pC))
    Oracle.assertEquivalent(res.outputs("out"),
      "SELECT SUM(CAST(v AS DOUBLE)) AS s, SUM(CAST(v AS DOUBLE)) * 3 AS s3 FROM (SELECT * FROM t UNION ALL SELECT * FROM u)",
      "t" -> inputs("t"), "u" -> inputs("u"))
  }

  test("a cleartext input read by two MPC operators is closed into MPC once") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val t = table("t", pA, col("k"), col("v"))
    concat(
      t.join(table("u", pB, col("k"), col("w")), Seq("k"), Seq("k")).project("k"),
      t.join(table("w", pC, col("k"), col("w")), Seq("k"), Seq("k")).project("k"))
      .count(Seq.empty, "n").writeTo("out", pA)
    val inputs = Map(
      "t" -> Generators.keyed(spark, 20, 6, seed = 1),
      "u" -> Generators.keyed(spark, 10, 6, seed = 2).toDF("k", "w"),
      "w" -> Generators.keyed(spark, 10, 6, seed = 3).toDF("k", "w"))
    val res = run(dag, CompileConfig.default, inputs, Set(pA, pB, pC))
    Oracle.assertEquivalent(res.outputs("out"),
      """SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM (
        |  SELECT t.k FROM t JOIN u ON t.k = u.k UNION ALL SELECT t.k FROM t JOIN w ON t.k = w.k)
        |""".stripMargin, inputs.toSeq: _*)
    assert(res.metrics.closedRows == 40L, res.metrics)
    val closes = res.leakage.cardinalities.map(_.relation).filter(_.contains("@"))
    assert(closes.sorted == Seq("#0@a", "#1@b", "#4@c"), res.leakage.events)
  }

  test("the MPC-row safety cap triggers") {
    val inputs = twoPartyKeyed(300)
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")))
      .sortBy("v").limit(5).writeTo("out", pA)
    val plan = Compiler.compile(dag, CompileConfig.default)
    val ex = new Executor(spark, MpcBackend.sharemind(Set(pA, pB)), maxCloseRows = 100)
    assertThrows[IllegalArgumentException](ex.run(plan, inputs))
  }

  /** `df` plus a copy of its first row with `column` set to `value`. */
  private def withValueIn(df: DataFrame, column: String, value: Any): DataFrame =
    df.unionAll(df.limit(1).withColumn(column, lit(value).cast(df.schema(column).dataType)))

  /** `df` plus a copy of its first row with `column` set to NULL. */
  private def withNullIn(df: DataFrame, column: String): DataFrame = withValueIn(df, column, null)

  test("a NULL cell cannot enter MPC: the error names its column and relation") {
    // DuckDB's min skips the NULL; reading it as 0.0 would return 0.0.
    val inputs = twoPartyKeyed(20)
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")))
      .aggregate(Seq.empty, AggFn.Min, Some("v"), "m").writeTo("out", pA)
    val e = intercept[IllegalArgumentException](run(dag, CompileConfig.mpcOnly,
      inputs.updated("u", withNullIn(inputs("u"), "v")), Set(pA, pB)))
    assert(e.getMessage.contains("column 'v'") && e.getMessage.matches("(?s).*#\\d+@b.*"),
      e.getMessage)
  }

  test("an infinite or oversized cell cannot enter MPC: the error names its column and relation") {
    // Fixed-point shares hold finite values of magnitude at most 2^45.
    val inputs = twoPartyKeyed(20)
    for (bad <- Seq(Double.PositiveInfinity, math.pow(2, 46))) {
      val dag = new Dag
      val q = new Dsl(dag)
      import q._
      concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")))
        .aggregate(Seq.empty, AggFn.Max, Some("v"), "m").writeTo("out", pA)
      val e = intercept[IllegalArgumentException](run(dag, CompileConfig.mpcOnly,
        inputs.updated("u", withValueIn(inputs("u"), "v", bad)), Set(pA, pB)))
      assert(e.getMessage.contains("column 'v'") && e.getMessage.matches("(?s).*#\\d+@b.*"),
        e.getMessage)
    }
  }

  test("MPC limit after filter and sort returns the sorted prefix") {
    // Under mpcOnly the filter only marks rows invalid and the sort moves
    // them last; the limit must keep that order rather than shuffle.
    val inputs = twoPartyKeyed(40)
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")))
      .filter("k", CmpOp.Gt, 3).sortBy("v").limit(5).writeTo("out", pA)
    val res = run(dag, CompileConfig.mpcOnly, inputs, Set(pA, pB))
    val got = res.outputs("out").collect().map(_.getDouble(1)).toSeq
    val want = inputs("t").unionAll(inputs("u")).where("k > 3").orderBy("v").limit(5)
      .collect().map(_.getDouble(1)).toSeq
    assert(got == want)
    assert(got == Seq(16.0, 24.0, 24.0, 35.0, 35.0))
  }

  // Sort elimination (§5.4) may mark a consumer preSorted only while the
  // executed kernels really keep the claimed order; each query below once
  // skipped a needed sort.

  private def sortElimCheck(sql: String, schema: Seq[String])(query: Dsl#Rel => Dsl#Rel): Unit = {
    val inputs = Map(
      "t" -> Generators.keyed(spark, 40, 5, seed = 1).select(schema.head, schema.tail: _*),
      "u" -> Generators.keyed(spark, 40, 5, seed = 2).select(schema.head, schema.tail: _*))
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    query(concat(table("t", pA, schema.map(col(_)): _*), table("u", pB, schema.map(col(_)): _*)))
      .writeTo("out", pA)
    val res = run(dag, CompileConfig.default, inputs, Set(pA, pB))
    Oracle.assertEquivalent(res.outputs("out"),
      sql.replace("{t+u}", "(SELECT * FROM t UNION ALL SELECT * FROM u)"), "t" -> inputs("t"), "u" -> inputs("u"))
  }

  test("sort elimination: arithmetic that overwrites the sorted column drops the order") {
    sortElimCheck("SELECT CAST(k AS DOUBLE) * CAST(v AS DOUBLE) AS k, SUM(CAST(v AS DOUBLE)) AS s FROM {t+u} " +
      "GROUP BY CAST(k AS DOUBLE) * CAST(v AS DOUBLE)", Seq("k", "v")) {
      _.sortBy("k").multiply("k", "k", "v").sum(Seq("k"), "v", "s")
    }
  }

  test("sort elimination: a multi-column distinct re-sorts, so it drops its input's order") {
    sortElimCheck("SELECT CAST(COUNT(DISTINCT k) AS DOUBLE) AS c FROM {t+u}", Seq("v", "k")) {
      _.sortBy("k").distinct.project("k").distinct.count(Seq.empty, "c")
    }
  }

  test("sort elimination: a limit that compacts (shuffles) its input drops the order") {
    sortElimCheck(
      "SELECT CAST(COUNT(DISTINCT k) AS DOUBLE) AS c FROM {t+u} WHERE CAST(v AS DOUBLE) > 300", Seq("k", "v")) {
      _.sortBy("k").filter("v", CmpOp.Gt, 300).limit(1000).project("k").distinct.count(Seq.empty, "c")
    }
  }

  test("sort elimination: the sort right before a limit stays, so the limit keeps its order") {
    val inputs = twoPartyKeyed(40)
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")))
      .sortBy("v").filter("k", CmpOp.Gt, 3).sortBy("v").limit(5).writeTo("out", pA)
    val res = run(dag, CompileConfig.default, inputs, Set(pA, pB))
    val got = res.outputs("out").collect().map(_.getDouble(1)).toSeq
    val want = inputs("t").unionAll(inputs("u")).where("k > 3").orderBy("v").limit(5)
      .collect().map(_.getDouble(1)).toSeq
    assert(got == want)
  }

  test("a reused executor reports each run's metrics and leakage alone") {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")))
      .filter("v", CmpOp.Gt, 100).sum(Seq("k"), "v", "s").writeTo("out", pA)
    val plan = Compiler.compile(dag, CompileConfig.mpcOnly)
    val ex = new Executor(spark, MpcBackend.sharemind(Set(pA, pB)))
    val inputs = twoPartyKeyed(30)
    val first = ex.run(plan, inputs)
    val second = ex.run(plan, inputs)
    def multiset(r: ExecResult) = r.leakage.events.groupBy(identity).view.mapValues(_.size).toMap
    assert(first.metrics.cost.muls > 0)
    assert(second.metrics.cost == first.metrics.cost)
    assert(second.metrics.closedRows == first.metrics.closedRows)
    assert(multiset(second) == multiset(first))
  }

  // --------------------------------------------------- market concentration

  test("market concentration: per-company revenue matches DuckDB bit-for-bit") {
    val inputs = MarketConcentration.InputNames.zipWithIndex.map { case (nm, i) =>
      nm -> Generators.taxiTrips(spark, 2000, seed = 100 + i)
    }.toMap
    val res = run(MarketConcentration.buildRevenueOnly(), CompileConfig.default, inputs,
      Set(pA, pB, pC))
    Oracle.assertEquivalent(res.outputs("rev"), MarketConcentration.revenueSql,
      inputs.toSeq: _*)
  }

  test("market concentration: full HHI matches the cleartext reference within fixed-point tolerance") {
    val inputs = MarketConcentration.InputNames.zipWithIndex.map { case (nm, i) =>
      nm -> Generators.taxiTrips(spark, 2000, seed = 100 + i)
    }.toMap
    inputs.foreach { case (nm, df) => df.createOrReplaceTempView(nm) }
    val expected = firstDouble(spark.sql(MarketConcentration.referenceSql))
    val res = run(MarketConcentration.build(), CompileConfig.default, inputs, Set(pA, pB, pC))
    val got = firstDouble(res.outputs(MarketConcentration.OutputName))
    assert(math.abs(got - expected) < 1e-3, s"hhi got=$got expected=$expected")
    assert(res.metrics.closedRows < 100, "only a handful of rows may enter MPC")
  }

  test("market concentration under mpcOnly matches too (tiny input)") {
    val inputs = MarketConcentration.InputNames.zipWithIndex.map { case (nm, i) =>
      nm -> Generators.taxiTrips(spark, 150, seed = 200 + i)
    }.toMap
    inputs.foreach { case (nm, df) => df.createOrReplaceTempView(nm) }
    val expected = firstDouble(spark.sql(MarketConcentration.referenceSql))
    val res = run(MarketConcentration.build(), CompileConfig.mpcOnly, inputs, Set(pA, pB, pC))
    val got = firstDouble(res.outputs(MarketConcentration.OutputName))
    assert(math.abs(got - expected) < 1e-3, s"hhi got=$got expected=$expected")
  }

  // --------------------------------------------------------- credit scores

  private def creditInputs(nDemo: Int, nScores: Int): Map[String, DataFrame] = Map(
    "demographics" -> Generators.demographics(spark, nDemo, nZips = 8),
    "scores1" -> Generators.creditScores(spark, nScores, nDemo, seed = 301),
    "scores2" -> Generators.creditScores(spark, nScores, nDemo, seed = 302),
  )

  test("credit regulation (hybrid): totals and counts per ZIP match DuckDB") {
    val inputs = creditInputs(300, 200)
    val res = run(CreditRegulation.build(trustRegulator = true, withAvg = false),
      CompileConfig.default, inputs, Set(pA, pB, pC))
    Oracle.assertEquivalent(res.outputs(CreditRegulation.OutputName),
      CreditRegulation.referenceSqlExact, inputs.toSeq: _*)
  }

  test("credit regulation without trust (full MPC) produces the same rows") {
    val inputs = creditInputs(60, 40)
    val res = run(CreditRegulation.build(trustRegulator = false, withAvg = false),
      CompileConfig.default, inputs, Set(pA, pB, pC))
    Oracle.assertEquivalent(res.outputs(CreditRegulation.OutputName),
      CreditRegulation.referenceSqlExact, inputs.toSeq: _*)
  }

  test("credit regulation with average: fixed-point division within tolerance") {
    val inputs = creditInputs(200, 150)
    inputs.foreach { case (nm, df) => df.createOrReplaceTempView(nm) }
    val expected = spark.sql(CreditRegulation.referenceSqlAvg)
      .collect().map(r => r.getDouble(0) -> r.getDouble(3)).toMap
    val res = run(CreditRegulation.build(trustRegulator = true, withAvg = true),
      CompileConfig.default, inputs, Set(pA, pB, pC))
    val got = res.outputs(CreditRegulation.OutputName)
      .collect().map(r => r.getDouble(0) -> r.getDouble(3)).toMap
    assert(got.keySet == expected.keySet)
    got.foreach { case (zip, avg) =>
      assert(math.abs(avg - expected(zip)) < 1e-3, s"zip=$zip got=$avg want=${expected(zip)}")
    }
  }

  test("credit regulation leakage: SSNs only to the regulator, scores to nobody") {
    val inputs = creditInputs(120, 80)
    val res = run(CreditRegulation.build(trustRegulator = true, withAvg = false),
      CompileConfig.default, inputs, Set(pA, pB, pC))
    val cols = res.leakage.columns
    assert(cols.nonEmpty, "the hybrid ops must have revealed key columns")
    assert(cols.forall(_.to == Set(pA)), s"all column reveals must target the STP: $cols")
    assert(!cols.exists(_.column.contains("score")), "score values must never be revealed")
    // Without annotations there are no column reveals at all.
    val res2 = run(CreditRegulation.build(trustRegulator = false, withAvg = false),
      CompileConfig.default, creditInputs(60, 40), Set(pA, pB, pC))
    assert(res2.leakage.columns.isEmpty)
  }

  // ---------------------------------------- fused sibling aggregations

  /** t(k, g1, g2) at A, 40 rows; u(k, v) at B, 50 rows; keys 1..45. */
  private def fusedInputs: Map[String, DataFrame] = {
    import spark.implicits._
    val rnd = new scala.util.Random(71L)
    Map(
      "t" -> (1 to 40).map(k =>
        (k.toDouble, (rnd.nextInt(2) + 1).toDouble, (rnd.nextInt(3) + 1).toDouble)).toDF("k", "g1", "g2"),
      "u" -> Seq.fill(50)(((rnd.nextInt(45) + 1).toDouble, rnd.nextInt(100).toDouble)).toDF("k", "v"))
  }

  /** SUM, COUNT, MIN and MAX of v by (g1, g2) over t ⋈ u, one aggregation
    * each, joined pairwise on (g1, g2); `keepNone` filters every row out
    * first. With `trusted`, A may see u's k and hosts the hybrid operators.
    */
  private def fourAggs(trusted: Boolean, keepNone: Boolean): Dag = {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val g = Seq("g1", "g2")
    val joined = table("t", pA, col("k"), col("g1"), col("g2"))
      .join(table("u", pB, col("k", trust = if (trusted) Set(pA) else Set.empty), col("v")),
        Seq("k"), Seq("k"))
    val rows = if (keepNone) joined.filter("v", CmpOp.Gt, 1000) else joined
    rows.sum(g, "v", "s").join(rows.count(g, "c"), g, g)
      .join(rows.aggregate(g, AggFn.Min, Some("v"), "lo"), g, g)
      .join(rows.aggregate(g, AggFn.Max, Some("v"), "hi"), g, g)
      .writeTo("out", pA)
    dag
  }

  private def fourAggsSql(keepNone: Boolean): String =
    s"""SELECT t.g1 AS g1, t.g2 AS g2, SUM(CAST(u.v AS DOUBLE)) AS s, CAST(COUNT(*) AS DOUBLE) AS c,
       |  MIN(CAST(u.v AS DOUBLE)) AS lo, MAX(CAST(u.v AS DOUBLE)) AS hi
       |FROM t JOIN u ON CAST(t.k AS DOUBLE) = CAST(u.k AS DOUBLE)
       |${if (keepNone) "WHERE CAST(u.v AS DOUBLE) > 1000" else ""}
       |GROUP BY t.g1, t.g2""".stripMargin

  private val allConfigs = Seq(
    "default" -> CompileConfig.default,
    "mpcOnly" -> CompileConfig.mpcOnly,
    "smcqlCompat" -> CompileConfig.smcqlCompat,
    "default-noLeak" -> CompileConfig.default.copy(allowCardinalityLeak = false))

  for ((engine, backend) <- Seq[(String, () => MpcBackend)](
         "sharemind" -> (() => MpcBackend.sharemind(Set(pA, pB))),
         "obliv-c" -> (() => MpcBackend.oblivc(Set(pA, pB))));
       trusted <- Seq(true, false))
    test(s"$engine: fused SUM, COUNT, MIN and MAX by two keys match DuckDB under every config" +
        (if (trusted) " (hybrid)" else " (no trust)")) {
      val inputs = fusedInputs
      for ((name, config) <- allConfigs; keepNone <- Seq(false, true)) {
        val plan = Compiler.compile(fourAggs(trusted, keepNone), config)
        val aggs = plan.mpcNodes.filter(_.kind.isInstanceOf[OpKind.AggKind])
        assert(aggs.length == (if (name == "mpcOnly") 4 else 1), s"$name\n${plan.describe}")
        val res = new Executor(spark, backend()).run(plan, inputs)
        Oracle.assertEquivalent(res.outputs("out"), fourAggsSql(keepNone), inputs.toSeq: _*)
        assert((res.outputs("out").count() == 0) == keepNone, s"$name keepNone=$keepNone")
      }
    }

  test("credit without trust: the fused Jónsson aggregation sorts once, not twice") {
    val inputs = creditInputs(60, 40)
    def cmps(config: CompileConfig): (Long, Long) = {
      val res = run(CreditRegulation.build(trustRegulator = false, withAvg = false), config, inputs,
        Set(pA, pB, pC))
      val joined = res.leakage.cardinalities.find(_.relation == "#4").get.rows
      (res.metrics.cost.cmps, Oblivious.sortPairs(joined))
    }
    val (fused, sort) = cmps(CompileConfig.default)
    assert(sort > 0 && fused == sort)
    val (apart, sort2) = cmps(CompileConfig.mpcOnly)
    assert(apart == 2 * sort2)
  }

  // --------------------------------------------------------------- aspirin

  private def aspirinInputs(n: Int): Map[String, DataFrame] = Map(
    "diag1" -> Generators.diagnoses(spark, n, party = 0, nCodes = 4),
    "diag2" -> Generators.diagnoses(spark, n, party = 1, nCodes = 4),
    "med1" -> Generators.medications(spark, n, party = 0, nCodes = 4),
    "med2" -> Generators.medications(spark, n, party = 1, nCodes = 4),
  )

  test("aspirin count (public join + sort elim) matches DuckDB") {
    val inputs = aspirinInputs(400)
    val res = run(AspirinCount.build(), CompileConfig.smcqlCompat, inputs,
      Set(AspirinCount.pH1, AspirinCount.pH2))
    Oracle.assertEquivalent(res.outputs(AspirinCount.OutputName), AspirinCount.referenceSql,
      inputs.toSeq: _*)
  }

  test("aspirin count: exactly the matched rows enter MPC; keys leak to all") {
    val inputs = aspirinInputs(400)
    val d = inputs("diag1").unionAll(inputs("diag2")).select("patient")
    val m = inputs("med1").unionAll(inputs("med2")).select("patient").toDF("p2")
    val pairs = d.join(m, d("patient") === m("p2")).count()
    val res = run(AspirinCount.build(), CompileConfig.smcqlCompat, inputs,
      Set(AspirinCount.pH1, AspirinCount.pH2))
    assert(res.metrics.closedRows == 2 * pairs,
      s"public join must close exactly the matched rows: ${res.metrics.closedRows} vs 2*$pairs")
    assert(res.leakage.columns.exists(_.column == "left:patient"))
  }

  test("the safety cap stops a public join before any matched row is shared") {
    val inputs = aspirinInputs(400)
    val d = inputs("diag1").unionAll(inputs("diag2")).select("patient")
    val m = inputs("med1").unionAll(inputs("med2")).select("patient").toDF("p2")
    val pairs = d.join(m, d("patient") === m("p2")).count()
    val backend = MpcBackend.sharemind(Set(AspirinCount.pH1, AspirinCount.pH2))
    val plan = Compiler.compile(AspirinCount.build(), CompileConfig.smcqlCompat)
    val e = intercept[IllegalArgumentException](
      new Executor(spark, backend, maxCloseRows = 2 * pairs - 1).run(plan, inputs))
    assert(e.getMessage.contains("safety cap"), e.getMessage)
    val cards = backend.leakage.cardinalities
    assert(cards.exists(_.rows == pairs), s"the join was paired: $cards")
    assert(!cards.exists(c => c.relation.endsWith(":left") || c.relation.endsWith(":right")),
      s"no matched row may be closed: $cards")
  }

  test("a NULL public join key is rejected before anything is revealed") {
    val inputs = aspirinInputs(40)
    val backend = MpcBackend.sharemind(Set(AspirinCount.pH1, AspirinCount.pH2))
    val plan = Compiler.compile(AspirinCount.build(), CompileConfig.smcqlCompat)
    val e = intercept[IllegalArgumentException](new Executor(spark, backend)
      .run(plan, inputs.updated("diag2", withNullIn(inputs("diag2"), "patient"))))
    assert(e.getMessage.contains("column 'patient'") && e.getMessage.matches("(?s).*#\\d+@h2.*"),
      e.getMessage)
    assert(backend.leakage.events.isEmpty, backend.leakage.events)
  }

  test("a NaN public join key is rejected before anything is revealed") {
    // Paired in the clear, a NaN key would match nothing and its row would
    // silently drop out of the join; DuckDB joins NaN = NaN.
    val inputs = aspirinInputs(40)
    val backend = MpcBackend.sharemind(Set(AspirinCount.pH1, AspirinCount.pH2))
    val plan = Compiler.compile(AspirinCount.build(), CompileConfig.smcqlCompat)
    val e = intercept[IllegalArgumentException](new Executor(spark, backend)
      .run(plan, inputs.updated("diag2", withValueIn(inputs("diag2"), "patient", Double.NaN))))
    assert(e.getMessage.contains("column 'patient'") && e.getMessage.matches("(?s).*#\\d+@h2.*"),
      e.getMessage)
    assert(backend.leakage.events.isEmpty, backend.leakage.events)
  }

  test("aspirin count under mpcOnly matches (tiny input)") {
    val inputs = aspirinInputs(40)
    val res = run(AspirinCount.build(), CompileConfig.mpcOnly, inputs,
      Set(AspirinCount.pH1, AspirinCount.pH2))
    Oracle.assertEquivalent(res.outputs(AspirinCount.OutputName), AspirinCount.referenceSql,
      inputs.toSeq: _*)
  }

  // ------------------------------------------------------------ comorbidity

  test("comorbidity counts match DuckDB") {
    val inputs = Map(
      "cdiag1" -> Generators.comorbidityDiagnoses(spark, 300, party = 0),
      "cdiag2" -> Generators.comorbidityDiagnoses(spark, 300, party = 1))
    val res = run(Comorbidity.buildCountsOnly(), CompileConfig.default, inputs,
      Set(Comorbidity.pH1, Comorbidity.pH2))
    Oracle.assertEquivalent(res.outputs("counts"), Comorbidity.referenceSqlCounts,
      inputs.toSeq: _*)
  }

  test("comorbidity top-10 returns the ten most common diagnoses") {
    val inputs = Map(
      "cdiag1" -> Generators.comorbidityDiagnoses(spark, 250, party = 0),
      "cdiag2" -> Generators.comorbidityDiagnoses(spark, 250, party = 1))
    inputs.foreach { case (nm, df) => df.createOrReplaceTempView(nm) }
    val ref = spark.sql(Comorbidity.referenceSqlCounts).collect()
      .map(r => r.getDouble(0) -> r.getDouble(1)).toMap
    val res = run(Comorbidity.build(), CompileConfig.default, inputs,
      Set(Comorbidity.pH1, Comorbidity.pH2))
    val got = res.outputs(Comorbidity.OutputName).collect()
      .map(r => r.getDouble(0) -> r.getDouble(1))
    assert(got.length == Comorbidity.TopK)
    // Counts must be the 10 largest (ties at the cut-off may pick either key).
    val wantCounts = ref.values.toSeq.sorted(Ordering[Double].reverse).take(Comorbidity.TopK)
    assert(got.map(_._2).toSeq.sorted(Ordering[Double].reverse) == wantCounts)
    got.foreach { case (diag, cnt) => assert(ref(diag) == cnt, s"diag=$diag") }
  }

  // ---------------------------------------------------------------- metrics

  test("metrics distinguish modeled MPC time from real wall time") {
    val inputs = twoPartyKeyed(150)
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    concat(table("t", pA, col("k"), col("v")), table("u", pB, col("k"), col("v")))
      .sum(Seq("k"), "v", "s").writeTo("out", pA)
    val res = run(dag, CompileConfig.default, inputs, Set(pA, pB))
    assert(res.metrics.wallSeconds > 0)
    assert(res.metrics.mpcModeledSeconds > 0)
    assert(res.metrics.closedRows > 0)
    assert(res.metrics.reportedSeconds > 0)
    assert(res.metrics.cost.muls > 0)
  }

  test("collecting a cleartext input of an MPC concat is not counted as simulator time") {
    // c's rows take 300 ms each to produce in Spark; that work is
    // cleartext time, outside the MPC simulator's real seconds.
    val slow = udf { (x: Double) => Thread.sleep(300); x }
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    concat(
      table("a", pA, col("k"), col("v")).join(table("b", pB, col("k"), col("w")), Seq("k"), Seq("k")),
      table("c", pC, col("k"), col("v"), col("w")))
      .writeTo("out", pA)
    val c = spark.range(0, 2, 1, 1).selectExpr("cast(id as double) as k", "1.0 as v")
      .withColumn("w", slow(lit(2.0)))
    val inputs = Map(
      "a" -> Generators.keyed(spark, 4, 3, seed = 1),
      "b" -> Generators.keyed(spark, 4, 3, seed = 2).toDF("k", "w"),
      "c" -> c)
    val res = run(dag, CompileConfig.default, inputs, Set(pA, pB, pC))
    assert(res.outputs("out").count() > 0)
    assert(res.metrics.mpcRealSeconds < 0.6, res.metrics)
  }
}
