package repro.core

/** A computation participant (a data owner, result recipient, and/or MPC
  * compute node).
  *
  * Ordering is lexicographic on the name so that all parties independently
  * and deterministically agree on derived choices — e.g. which
  * selectively-trusted party (STP) to use when several are authorized.
  */
final case class Party(name: String) extends Ordered[Party] {
  def compare(that: Party): Int = name.compare(that.name)
  override def toString: String = name
}
