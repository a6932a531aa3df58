package repro.eval

import org.apache.spark.sql.SparkSession

/** Input sizes for one run of a table: T1's cleartext-Spark column runs at
  * `spark` (far larger inputs), every other system at `mpc`.
  */
final case class Sizes(mpc: Seq[Long], spark: Seq[Long])

object Sizes {
  def apply(all: Long*): Sizes = Sizes(all, all)
}

/** One reproduced table of the paper's evaluation (§7): its default sizes,
  * the reduced sizes its bench test runs at, and how to run it.
  */
final case class Table(id: String, title: String, sizes: Sizes, benchSizes: Sizes,
    run: (SparkSession, Sizes) => Seq[BenchPoint])

/** The registry of reproduced tables, and the entrypoint that runs one:
  * `sbt "runMain repro.eval.Tables T2 [sizes…]"` prints the table at the
  * given sizes, or at its defaults.
  */
object Tables {

  import Fig1Microbench.{AggOp, JoinOp, ProjectOp, OpKindT}

  private def microbench(op: OpKindT)(spark: SparkSession, s: Sizes) =
    Fig1Microbench.run(spark, op, s.mpc, s.spark)

  private val t1Spark = Seq(10000L, 100000L, 1000000L, 10000000L, 30000000L)
  private val t1BenchSpark = Seq(10000L, 100000L, 1000000L)

  val all: Seq[Table] = Seq(
    Table("T1a", "T1a (Fig. 1a) — aggregation microbenchmark",
      Sizes(Seq(1000L, 3000L, 10000L, 30000L, 100000L, 1000000L), t1Spark),
      Sizes(Seq(1000L, 3000L, 10000L, 30000L), t1BenchSpark),
      microbench(AggOp)),
    Table("T1b", "T1b (Fig. 1b) — join microbenchmark",
      Sizes(Seq(300L, 1000L, 3000L, 10000L, 30000L, 100000L), t1Spark),
      Sizes(Seq(300L, 1000L, 3000L, 10000L), t1BenchSpark),
      microbench(JoinOp)),
    Table("T1c", "T1c (Fig. 1c) — projection microbenchmark",
      Sizes(Seq(10000L, 100000L, 300000L, 1000000L, 3000000L), t1Spark),
      Sizes(Seq(10000L, 100000L, 300000L, 1000000L), t1BenchSpark),
      microbench(ProjectOp)),
    Table("T2", "T2 (Fig. 4) — market concentration (HHI)",
      Sizes(1000, 10000, 100000, 1000000, 10000000),
      Sizes(1000, 10000, 100000),
      (spark, s) => Fig4MarketConc.run(spark, s.mpc)),
    Table("T3a", "T3a (Fig. 5a) — join operator variants (rows per party)",
      Sizes(1000, 10000, 50000, 200000),
      Sizes(1000, 10000, 50000),
      (_, s) => Fig5Hybrid.runJoins(s.mpc)),
    Table("T3b", "T3b (Fig. 5b) — aggregation operator variants (rows per party)",
      Sizes(1000, 10000, 50000, 200000),
      Sizes(1000, 10000, 50000),
      (_, s) => Fig5Hybrid.runAggs(s.mpc)),
    Table("T4", "T4 (Fig. 6) — credit-card regulation (total records)",
      Sizes(300, 3000, 30000, 300000),
      Sizes(300, 3000, 30000),
      (spark, s) => Fig6Credit.run(spark, s.mpc)),
    Table("T5", "T5 (Fig. 7a) — aspirin count (rows per party)",
      Sizes(1000, 4000, 40000, 400000),
      Sizes(1000, 4000, 20000),
      (spark, s) => Fig7Smcql.runAspirin(spark, s.mpc)),
    Table("T6", "T6 (Fig. 7b) — comorbidity (rows per party)",
      Sizes(100, 1000, 10000, 100000),
      Sizes(1000, 5000, 20000),
      (spark, s) => Fig7Smcql.runComorbidity(spark, s.mpc)),
  )

  def byId(id: String): Option[Table] = all.find(_.id == id)

  /** The table and sizes named by command-line arguments (a table id, then
    * optional positive sizes), or a message listing the valid ids.
    */
  def parse(args: Seq[String]): Either[String, (Table, Sizes)] = {
    val usage = s"usage: repro.eval.Tables <${all.map(_.id).mkString("|")}> [sizes…]"
    args match {
      case Seq() => Left(usage)
      case id +: rest =>
        val sizes = rest.map(_.toLongOption.filter(_ > 0))
        byId(id) match {
          case None => Left(s"unknown table '$id'; $usage")
          case Some(_) if sizes.contains(None) =>
            Left(s"sizes must be positive integers: ${rest.mkString(" ")}; $usage")
          case Some(t) =>
            Right((t, if (rest.isEmpty) t.sizes else Sizes(sizes.flatten: _*)))
        }
    }
  }

  def main(args: Array[String]): Unit = {
    val (table, sizes) = parse(args.toSeq) match {
      case Right(ts) => ts
      case Left(message) =>
        Console.err.println(message)
        sys.exit(2)
    }
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"repro-${table.id}")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(Bench.table(table.title, table.run(spark, sizes)))
    finally spark.stop()
  }
}
