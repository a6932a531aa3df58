package repro.mpc

import repro.core.Party

import scala.collection.mutable.ArrayBuffer

/** What a protocol execution revealed, and to whom.
  *
  * Conclave's security argument (paper §5.2, §5.3, Appendix A) is phrased in
  * terms of explicitly authorized leakage: cardinalities at the MPC frontier,
  * columns revealed to the selectively-trusted party, and key columns of a
  * public join. The MPC substrate records every such event so tests can
  * assert that a compiled plan leaks *exactly* what the paper authorizes and
  * nothing else.
  */
sealed trait LeakageEvent {
  /** Parties that learn this piece of information. */
  def to: Set[Party]
}

/** A party (or parties) learned the row count of a relation — e.g. the size
  * of an MPC input after a push-down, or of a hybrid operator's output.
  */
final case class CardinalityLeak(relation: String, rows: Long, to: Set[Party]) extends LeakageEvent

/** A party learned the cleartext values of one column of a relation — e.g.
  * the shuffled key column revealed to the STP in a hybrid join.
  */
final case class ColumnLeak(relation: String, column: String, to: Set[Party]) extends LeakageEvent

/** A party learned an entire relation in the clear — e.g. the final query
  * output revealed to its recipients.
  */
final case class RelationLeak(relation: String, to: Set[Party]) extends LeakageEvent

/** Append-only log of leakage events for one query execution. */
final class LeakageLog {
  private val buf = ArrayBuffer.empty[LeakageEvent]

  def record(e: LeakageEvent): Unit = buf += e

  def events: Seq[LeakageEvent] = buf.toSeq

  def cardinalities: Seq[CardinalityLeak] = buf.collect { case e: CardinalityLeak => e }.toSeq
  def columns: Seq[ColumnLeak]            = buf.collect { case e: ColumnLeak => e }.toSeq
  def relations: Seq[RelationLeak]        = buf.collect { case e: RelationLeak => e }.toSeq

  /** All columns whose cleartext values party `p` observed. */
  def columnsSeenBy(p: Party): Set[(String, String)] =
    columns.filter(_.to.contains(p)).map(e => (e.relation, e.column)).toSet

  def clear(): Unit = buf.clear()

  /** An independent copy holding the events recorded so far. */
  def snapshot: LeakageLog = {
    val copy = new LeakageLog
    buf.foreach(copy.record)
    copy
  }
}
