package repro.data

import java.security.MessageDigest
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, SynthData}

/** Dataset generators: determinism, schema, and the distributional knobs the
  * benchmarks rely on (zero-fare fraction, patient overlap, distinct-key
  * ratio). All values must be integer-valued doubles so MPC fixed-point
  * arithmetic is exact.
  */
class GeneratorsSpec extends SparkSpec {

  private def allIntegerValued(df: org.apache.spark.sql.DataFrame): Boolean =
    df.columns.forall { c =>
      df.where(col(c) =!= col(c).cast("long").cast("double")).isEmpty
    }

  test("taxiTrips: schema, row count, determinism") {
    val a = Generators.taxiTrips(spark, 500)
    val b = Generators.taxiTrips(spark, 500)
    assert(a.columns.toSeq == Seq("companyID", "price"))
    assert(a.count() == 500)
    assert(a.exceptAll(b).isEmpty && b.exceptAll(a).isEmpty, "deterministic in (size, seed)")
  }

  test("taxiTrips: ~1% zero fares, company IDs in range, integer-valued") {
    val df = Generators.taxiTrips(spark, 20000, nCompanies = 5).cache()
    val zeroFrac = df.where(col("price") === 0).count().toDouble / df.count()
    assert(zeroFrac > 0.003 && zeroFrac < 0.03, s"zeroFrac=$zeroFrac")
    val ids = df.select("companyID").distinct().collect().map(_.getDouble(0)).toSet
    assert(ids.subsetOf((1 to 5).map(_.toDouble).toSet))
    assert(allIntegerValued(df))
  }

  test("demographics: one row per SSN, ZIPs in range") {
    val df = Generators.demographics(spark, 1000, nZips = 10).cache()
    assert(df.count() == 1000)
    assert(df.select("ssn").distinct().count() == 1000)
    val zips = df.select("zip").distinct().collect().map(_.getDouble(0))
    assert(zips.forall(z => z >= 10001 && z <= 10010))
  }

  test("creditScores: SSNs within the universe, scores in 300..850") {
    val df = Generators.creditScores(spark, 2000, ssnUniverse = 500, seed = 1).cache()
    assert(df.agg(max("ssn")).collect().head.getDouble(0) <= 500)
    assert(df.agg(min("ssn")).collect().head.getDouble(0) >= 1)
    val (lo, hi) = (df.agg(min("score")).collect().head.getDouble(0),
      df.agg(max("score")).collect().head.getDouble(0))
    assert(lo >= 300 && hi <= 850, s"scores in [$lo,$hi]")
  }

  test("diagnoses: configurable patient overlap between parties") {
    val n = 20000L
    for (overlap <- Seq(0.02, 0.2)) {
      val p0 = Generators.diagnoses(spark, n, party = 0, overlap = overlap)
        .select("patient").distinct().collect().map(_.getDouble(0)).toSet
      val p1 = Generators.diagnoses(spark, n, party = 1, overlap = overlap)
        .select("patient").distinct().collect().map(_.getDouble(0)).toSet
      val frac = (p0 intersect p1).size.toDouble / p0.size
      assert(math.abs(frac - overlap) < overlap * 0.8 + 0.01,
        s"overlap=$overlap measured=$frac")
    }
  }

  test("medications share the diagnoses' patient-ID scheme") {
    val d = Generators.diagnoses(spark, 5000, party = 1)
      .agg(min("patient"), max("patient")).collect().head
    val m = Generators.medications(spark, 5000, party = 1)
      .agg(min("patient"), max("patient")).collect().head
    assert(math.abs(d.getDouble(0) - m.getDouble(0)) < 10)
    assert(math.abs(d.getDouble(1) - m.getDouble(1)) < 10)
  }

  test("comorbidityDiagnoses: distinct-key ratio near the requested fraction") {
    val df = Generators.comorbidityDiagnoses(spark, 10000, party = 0, distinctFrac = 0.1)
    val distinct = df.select("diag").distinct().count()
    assert(distinct > 600 && distinct <= 1000, s"distinct=$distinct")
  }

  test("keyed: uniform keys within range, integer payloads") {
    val df = Generators.keyed(spark, 5000, nKeys = 50).cache()
    val keys = df.select("k").distinct().collect().map(_.getDouble(0))
    assert(keys.forall(k => k >= 1 && k <= 50))
    assert(keys.length > 40, "uniform draw should hit most keys")
    assert(allIntegerValued(df))
  }

  test("all generators are integer-valued (exact under fixed-point)") {
    assert(allIntegerValued(Generators.demographics(spark, 300)))
    assert(allIntegerValued(Generators.creditScores(spark, 300, 100, seed = 2)))
    assert(allIntegerValued(Generators.diagnoses(spark, 300, party = 0)))
    assert(allIntegerValued(Generators.medications(spark, 300, party = 0)))
    assert(allIntegerValued(Generators.comorbidityDiagnoses(spark, 300, party = 0)))
  }

  test("SynthData TPC-H-lite tables generate at SF 0.001") {
    val li = repro.SynthData.lineitem(spark, sf = 0.001)
    val ord = repro.SynthData.orders(spark, sf = 0.001)
    assert(li.count() == 6000 && ord.count() == 1500)
    assert(li.columns.contains("l_orderkey") && ord.columns.contains("o_orderkey"))
  }

  test("SynthData zipf keys are skewed, uniform keys are not") {
    val z = repro.SynthData.zipfKeys(spark, 20000, nKeys = 100)
    val top = z.groupBy("k").count().orderBy(col("count").desc).limit(1)
      .collect().head.getLong(1)
    assert(top > 20000 / 100 * 3, s"zipf top key count=$top should dominate uniform share")
    val u = repro.SynthData.uniformKeys(spark, 20000, nKeys = 100)
    val topU = u.groupBy("k").count().orderBy(col("count").desc).limit(1)
      .collect().head.getLong(1)
    assert(topU < 20000 / 100 * 3, s"uniform top key count=$topU")
  }

  test("every generator's output is pinned by a digest, whatever the core count") {
    def digest(df: DataFrame): String = {
      val rows = df.collect().map(_.toSeq.mkString(",")).sorted.mkString("\n")
      MessageDigest.getInstance("SHA-256").digest(rows.getBytes("UTF-8")).take(8)
        .map("%02x".format(_)).mkString
    }
    val got = Seq(
      "taxiTrips" -> Generators.taxiTrips(spark, 40),
      "demographics" -> Generators.demographics(spark, 40),
      "creditScores" -> Generators.creditScores(spark, 40, 100, seed = 1),
      "diagnoses" -> Generators.diagnoses(spark, 40, party = 1),
      "medications" -> Generators.medications(spark, 40, party = 1),
      "comorbidityDiagnoses" -> Generators.comorbidityDiagnoses(spark, 40, party = 1),
      "keyed" -> Generators.keyed(spark, 40, 10),
      "lineitem" -> SynthData.lineitem(spark, sf = 0.00001),
      "orders" -> SynthData.orders(spark, sf = 0.00002),
      "customer" -> SynthData.customer(spark, sf = 0.0002),
      "part" -> SynthData.part(spark, sf = 0.0002),
      "zipfKeys" -> SynthData.zipfKeys(spark, 40, nKeys = 10),
      "uniformKeys" -> SynthData.uniformKeys(spark, 40, nKeys = 10),
    ).map { case (name, df) => name -> digest(df) }
    assert(got == Seq(
      "taxiTrips" -> "43171e9f0620a798",
      "demographics" -> "cfe720914b45eec4",
      "creditScores" -> "674171ca80fe4f06",
      "diagnoses" -> "2be510be6a23d610",
      "medications" -> "5f77fc2788e3a5b5",
      "comorbidityDiagnoses" -> "4bddba376910279d",
      "keyed" -> "1f2e22ac71822fc2",
      "lineitem" -> "f395aa3b30c1e42b",
      "orders" -> "ea18b31975d3f354",
      "customer" -> "956ac800817f7f13",
      "part" -> "31df8dc107de0ac5",
      "zipfKeys" -> "77bb840492b6f759",
      "uniformKeys" -> "dad96c4221cca9c4"))
  }
}
