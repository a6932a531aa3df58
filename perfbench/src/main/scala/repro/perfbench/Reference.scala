package repro.perfbench

import java.io.File
import java.sql.DriverManager
import org.apache.spark.sql.DataFrame

/** Expected outputs computed by DuckDB rather than by the compiler under
  * test. Inputs reach DuckDB as Parquet files written by Spark, which is far
  * faster than the row-by-row JDBC ingest `repro.Oracle` uses.
  */
object Reference {

  def compute(inputs: Seq[(String, DataFrame)], sql: String, columns: Seq[String],
      dir: File): Seq[Seq[Double]] = {
    val paths = inputs.map { case (name, df) =>
      val path = new File(dir, name).getAbsolutePath
      df.write.mode("overwrite").parquet(path)
      name -> path
    }
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      val st = conn.createStatement
      // Parquet support is built into the driver; never fetch extensions.
      st.execute("SET autoinstall_known_extensions = false")
      st.execute("SET autoload_known_extensions = false")
      st.execute(s"SET temp_directory = '${new File(dir, "duckdb-tmp").getAbsolutePath}'")
      st.execute("SET threads = 2")
      paths.foreach { case (name, path) =>
        st.execute(s"CREATE VIEW $name AS SELECT * FROM read_parquet('$path/*.parquet')")
      }
      val rs = st.executeQuery(sql)
      val meta = rs.getMetaData
      val labels = (1 to meta.getColumnCount).map(i => meta.getColumnLabel(i).toLowerCase)
      val idx = columns.map { c =>
        val i = labels.indexOf(c.toLowerCase)
        require(i >= 0, s"reference query has no column $c (has ${labels.mkString(",")})")
        i + 1
      }
      val rows = Iterator.continually(rs).takeWhile(_.next()).map(r => idx.map(r.getDouble)).toVector
      rows
    } finally conn.close()
  }

  /** Problems with `got` against `expected`, rows compared in sorted order. */
  def diff(expected: Seq[Seq[Double]], got: Seq[Seq[Double]], tolerance: Seq[Double]): Option[String] = {
    import scala.math.Ordering.Implicits.seqOrdering
    val e = expected.sorted
    val g = got.sorted
    if (e.length != g.length) Some(s"${g.length} rows, expected ${e.length}")
    else e.zip(g).collectFirst {
      case (er, gr) if er.indices.exists(i => !(math.abs(er(i) - gr(i)) <= tolerance(i))) =>
        s"row ${gr.mkString(",")} != expected ${er.mkString(",")}"
    }
  }
}
