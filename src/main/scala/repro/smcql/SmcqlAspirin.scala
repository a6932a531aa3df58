package repro.smcql

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.mpc._
import repro.queries.AspirinCount

/** SMCQL baseline for the aspirin-count query (§7.4, Fig. 7a).
  *
  * SMCQL slices on the public patient ID: single-party slices run locally in
  * the clear; every shared slice becomes its *own small MPC* on the
  * ObliVM-like garbled-circuit backend, paying the per-invocation circuit
  * setup each time — which dominates its runtime (the paper's 14.3 minutes
  * at 40k rows/party vs. Conclave's 3.7 s). Each slice runs the compiled
  * query under `mpcOnly`, so the join and the distinct run fully
  * obliviously (SMCQL lacks Conclave's public-join and sort-elimination
  * optimizations).
  */
object SmcqlAspirin {

  final case class Result(count: Long, localSeconds: Double, mpcModeledSeconds: Double,
      slices: Int) {
    def reportedSeconds: Double = localSeconds + mpcModeledSeconds
  }

  private val parties: Set[Party] = Set(AspirinCount.pH1, AspirinCount.pH2)

  /** @param inputs diag1/diag2/med1/med2 DataFrames (patient, diag|med, time) */
  def run(spark: SparkSession, inputs: Map[String, DataFrame]): Result = {
    val dag = Compiler.compile(AspirinCount.build(), CompileConfig.mpcOnly).dag
    val out = dag.outputs.head
    val output = out.kind.asInstanceOf[OpKind.Output]
    val inner = dag.topo.filter(n => n.children.nonEmpty && (n ne out))
    require(inner.forall(_.isMpc), s"every inner operator must run under MPC:\n${dag.describe}")

    val ins = dag.inputs.map(n => (n, n.kind.asInstanceOf[OpKind.Input].relName))

    val t0 = System.nanoTime()
    val split = AspirinCount.split(spark, inputs)
    // Each input's shared rows, by patient ID, every cell checked as the
    // executor checks what it closes.
    val rows = ins.map { case (n, rel) =>
      val df = split.shared(rel)
      val cols = Executor.columns(rel, n.schema, df.select(n.schema.map(df.col): _*).collect())
      rel -> cols.head.indices.map(i => cols.map(_(i))).groupBy(_(n.schema.indexOf("patient")))
    }.toMap
    val localSeconds = (System.nanoTime() - t0) / 1e9

    // One ObliVM MPC per shared patient with a diagnosis and a medication.
    val backend = MpcBackend.oblivm(parties)
    var mpcCount = 0L
    var slices = 0
    split.sharedKeys.toSeq.sorted.foreach { patient =>
      def slice(rel: String) = rows(rel).getOrElse(patient, Seq.empty)
      if (Seq("diag", "med").forall(r => Seq("1", "2").exists(h => slice(r + h).nonEmpty))) {
        slices += 1
        backend.meter.addSetup() // per-slice circuit generation + handshake
        val vals = scala.collection.mutable.HashMap.empty[Int, SharedRelation]
        ins.foreach { case (n, rel) =>
          vals(n.id) = backend.closeRows(s"slice:$patient:$rel", n.schema, slice(rel))
        }
        inner.foreach { n =>
          vals(n.id) = Executor.mpcOp(backend, n, n.children.map(c => vals(c.id)).toSeq)
        }
        mpcCount += backend.reveal(output.relName, vals(out.children.head.id), output.recipients)
          .head.head.toLong
      }
    }
    Result(split.localCount + mpcCount, localSeconds, backend.meter.modeledSeconds, slices)
  }
}
