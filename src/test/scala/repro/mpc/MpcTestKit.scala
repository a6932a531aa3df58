package repro.mpc

import repro.core.Party

/** Helpers shared by MPC substrate tests. */
object MpcTestKit {
  val pA: Party = Party("a"); val pB: Party = Party("b"); val pC: Party = Party("c")
  val parties3: Set[Party] = Set(pA, pB, pC)

  def sharemind(seed: Long = 7L): MpcBackend = MpcBackend.sharemind(parties3, seed)
  def oblivc(): MpcBackend = MpcBackend.oblivc(Set(pA, pB))
  def oblivm(): MpcBackend = MpcBackend.oblivm(Set(pA, pB))

  def rel(b: MpcBackend, schema: Seq[String], rows: Seq[Seq[Double]]): SharedRelation =
    b.closeRows("test", schema, rows)

  /** Reveal a relation (compacting validity) to every party, as plain rows. */
  def open(b: MpcBackend, r: SharedRelation): Seq[Seq[Double]] =
    b.reveal("test", r, b.allParties)

  /** Canonical multiset form for order-insensitive comparison. */
  def canon(rows: Seq[Seq[Double]]): Seq[Seq[Double]] =
    rows.map(_.toSeq).sortBy(_.mkString(","))

  def assertSameRows(got: Seq[Seq[Double]], expected: Seq[Seq[Double]]): Unit = {
    val g = canon(got); val e = canon(expected)
    assert(g == e, s"rows differ:\n got=${g.take(10)}\n exp=${e.take(10)}")
  }
}
