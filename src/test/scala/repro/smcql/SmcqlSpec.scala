package repro.smcql

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.lit
import repro.SparkSpec
import repro.core.CompileConfig
import repro.data.Generators
import repro.eval.{Bench, Fig7Smcql}
import repro.mpc.MpcBackend
import repro.queries.{AspirinCount, AspirinSliced, Comorbidity}

/** SMCQL baseline and the Conclave+slicing driver: result correctness vs.
  * the cleartext reference, slicing invariants, and the cost relationships
  * the §7.4 comparison rests on.
  */
class SmcqlSpec extends SparkSpec {

  private def aspirinInputs(n: Long, overlap: Double = 0.05) = Map(
    "diag1" -> Generators.diagnoses(spark, n, party = 0, overlap = overlap, nCodes = 4),
    "diag2" -> Generators.diagnoses(spark, n, party = 1, overlap = overlap, nCodes = 4),
    "med1" -> Generators.medications(spark, n, party = 0, overlap = overlap, nCodes = 4),
    "med2" -> Generators.medications(spark, n, party = 1, overlap = overlap, nCodes = 4))

  /** SMCQL's comorbidity plan is Conclave's, run on the ObliVM backend. */
  private def smcqlComorbidity(inputs: Map[String, org.apache.spark.sql.DataFrame]) =
    Bench.runConclave(spark, Comorbidity.build(), CompileConfig.default, inputs,
      Set(Comorbidity.pH1, Comorbidity.pH2), MpcBackend.oblivm(_))

  private def referenceCount(inputs: Map[String, org.apache.spark.sql.DataFrame]): Long = {
    inputs.foreach { case (nm, df) => df.createOrReplaceTempView(nm) }
    spark.sql(AspirinCount.referenceSql).collect().head.getDouble(0).toLong
  }

  test("slicing partitions keys by party presence") {
    val inputs = aspirinInputs(300)
    val sliced = Slicing.slice(spark,
      Seq(Map("diag" -> inputs("diag1"), "med" -> inputs("med1")),
        Map("diag" -> inputs("diag2"), "med" -> inputs("med2"))), "patient")
    // Shared keys appear on both parties; local parts contain none of them.
    val p0Keys = inputs("diag1").select("patient").unionAll(inputs("med1").select("patient"))
      .distinct().collect().map(_.getDouble(0)).toSet
    val p1Keys = inputs("diag2").select("patient").unionAll(inputs("med2").select("patient"))
      .distinct().collect().map(_.getDouble(0)).toSet
    assert(sliced.sharedKeys == (p0Keys intersect p1Keys))
    sliced.localParts.zipWithIndex.foreach { case (rels, i) =>
      rels.values.foreach { df =>
        val keys = df.select("patient").distinct().collect().map(_.getDouble(0)).toSet
        assert((keys intersect sliced.sharedKeys).isEmpty, s"party $i local slice has shared keys")
      }
    }
  }

  /** `inputs` with column `c` of relation `rel` NULL in every row. */
  private def withNulls(inputs: Map[String, DataFrame], rel: String, c: String) =
    inputs.updated(rel, inputs(rel).withColumn(c, lit(null).cast("double")))

  test("Conclave+slicing names the column and relation of a NULL key") {
    val e = intercept[IllegalArgumentException](
      AspirinSliced.run(spark, withNulls(aspirinInputs(40, overlap = 0.25), "diag1", "patient")))
    assert(e.getMessage.contains("'patient' of diag1"), e.getMessage)
  }

  test("SMCQL aspirin names the column and relation of a NULL key or shared cell") {
    val inputs = aspirinInputs(40, overlap = 0.25)
    val key = intercept[IllegalArgumentException](
      SmcqlAspirin.run(spark, withNulls(inputs, "med2", "patient")))
    assert(key.getMessage.contains("'patient' of med2"), key.getMessage)
    val cell = intercept[IllegalArgumentException](
      SmcqlAspirin.run(spark, withNulls(inputs, "diag1", "dtime")))
    assert(cell.getMessage.contains("'dtime' of diag1"), cell.getMessage)
  }

  test("SMCQL aspirin names the column and relation of a NaN shared cell") {
    val inputs = aspirinInputs(40, overlap = 0.25)
    val nan = inputs.updated("diag1", inputs("diag1").withColumn("dtime", lit(Double.NaN)))
    val e = intercept[IllegalArgumentException](SmcqlAspirin.run(spark, nan))
    assert(e.getMessage.contains("'dtime' of diag1"), e.getMessage)
  }

  test("slicing loses no rows") {
    val inputs = aspirinInputs(250)
    val sliced = Slicing.slice(spark,
      Seq(Map("diag" -> inputs("diag1")), Map("diag" -> inputs("diag2"))), "patient")
    val total = inputs("diag1").count() + inputs("diag2").count()
    val split = sliced.localParts.map(_("diag").count()).sum +
      sliced.sharedParts.map(_("diag").count()).sum
    assert(split == total)
  }

  test("SMCQL aspirin count matches the cleartext reference") {
    val inputs = aspirinInputs(200)
    val r = SmcqlAspirin.run(spark, inputs)
    assert(r.count == referenceCount(inputs), s"smcql=$r")
  }

  test("Conclave+slicing aspirin count matches the cleartext reference") {
    val inputs = aspirinInputs(200)
    val r = AspirinSliced.run(spark, inputs)
    assert(r.count == referenceCount(inputs), s"conclave=$r")
  }

  test("SMCQL and Conclave+slicing agree with each other (property over sizes)") {
    for (n <- Seq(50L, 120L, 350L)) {
      val inputs = aspirinInputs(n)
      val a = AspirinSliced.run(spark, inputs).count
      val b = SmcqlAspirin.run(spark, inputs).count
      assert(a == b, s"n=$n conclave=$a smcql=$b")
    }
  }

  test("SMCQL pays one circuit setup per shared slice") {
    val inputs = aspirinInputs(300)
    val r = SmcqlAspirin.run(spark, inputs)
    assert(r.slices > 0)
    assert(r.mpcModeledSeconds >= r.slices * repro.mpc.CostParams.ObliVM.setup)
  }

  test("Conclave+slicing is far cheaper than SMCQL on modeled MPC time") {
    val inputs = aspirinInputs(400)
    val c = AspirinSliced.run(spark, inputs)
    val s = SmcqlAspirin.run(spark, inputs)
    assert(c.mpcModeledSeconds * 5 < s.mpcModeledSeconds,
      s"conclave=${c.mpcModeledSeconds}s smcql=${s.mpcModeledSeconds}s")
  }

  test("SMCQL aspirin at 1000 rows per party: count, slices and modeled seconds are pinned") {
    val r = SmcqlAspirin.run(spark, Fig7Smcql.aspirinInputs(spark, 1000))
    assert((r.count, r.slices, math.rint(r.mpcModeledSeconds * 1e4) / 1e4) == ((2L, 13, 48.7687)), r)
  }

  test("SMCQL comorbidity at 1000 rows per party: modeled seconds are pinned") {
    val r = smcqlComorbidity(Fig7Smcql.comorbidityInputs(spark, 1000))
    assert(math.rint(r.metrics.mpcModeledSeconds * 1e4) / 1e4 == 136.0008, r.metrics)
  }

  test("SMCQL comorbidity top-k matches the Conclave result") {
    val inputs = Map(
      "cdiag1" -> Generators.comorbidityDiagnoses(spark, 200, party = 0),
      "cdiag2" -> Generators.comorbidityDiagnoses(spark, 200, party = 1))
    val top = smcqlComorbidity(inputs).outputs(Comorbidity.OutputName).collect()
      .map(r => (r.getDouble(0), r.getDouble(1))).toSeq
    inputs.foreach { case (nm, df) => df.createOrReplaceTempView(nm) }
    val ref = spark.sql(repro.queries.Comorbidity.referenceSqlCounts).collect()
      .map(r => r.getDouble(0) -> r.getDouble(1)).toMap
    assert(top.length == repro.queries.Comorbidity.TopK)
    top.foreach { case (diag, cnt) => assert(ref(diag) == cnt) }
    val wantCounts = ref.values.toSeq.sorted(Ordering[Double].reverse).take(top.length)
    assert(top.map(_._2).sorted(Ordering[Double].reverse) == wantCounts)
  }

  test("SMCQL comorbidity costs more than Conclave's secret-sharing run") {
    val inputs = Map(
      "cdiag1" -> Generators.comorbidityDiagnoses(spark, 400, party = 0),
      "cdiag2" -> Generators.comorbidityDiagnoses(spark, 400, party = 1))
    val s = smcqlComorbidity(inputs).metrics
    val c = repro.eval.Bench.runConclave(spark, repro.queries.Comorbidity.build(),
      repro.core.CompileConfig.default, inputs,
      Set(repro.queries.Comorbidity.pH1, repro.queries.Comorbidity.pH2))
    assert(c.metrics.mpcModeledSeconds < s.mpcModeledSeconds,
      s"conclave=${c.metrics.mpcModeledSeconds}s smcql=${s.mpcModeledSeconds}s")
  }
}
