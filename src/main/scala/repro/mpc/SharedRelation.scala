package repro.mpc

/** A relation protected by an MPC engine, stored by column.
  *
  * Every column holds fixed-point encoded data values. `validity`, when
  * present, is a column of raw 0/1 flags: rows whose flag is 0 have been
  * obliviously filtered out but are still carried (size-hiding,
  * order-preserving filtering — see `MpcBackend.filter`).
  *
  * The row count of a shared relation is public (standard MPC treatment of
  * input lengths, paper §3.2); the validity pattern is not.
  *
  * `fresh` says the row order is a secret uniform permutation that no
  * opening has exposed, so a shuffle of it is skipped ([[Oblivious.shuffle]]
  * states the rule). An oblivious shuffle, a compaction and the Cartesian
  * join's output set it; project, filter, arith, `constCol` and [[only]]
  * keep it; every other operator, and every opening of values aligned with
  * the rows, clears it.
  */
final case class SharedRelation(
    schema: Vector[String],
    cols: Vector[SharedCol],
    validity: Option[SharedCol] = None,
    fresh: Boolean = false,
) {
  require(cols.length == schema.length, s"column count mismatch against schema $schema")

  val size: Int = (cols ++ validity).headOption.map(_.length).getOrElse(0)
  require((cols ++ validity).forall(_.length == size), "column length mismatch")

  def width: Int = schema.length

  def colIdx(name: String): Int = {
    val i = schema.indexOf(name)
    require(i >= 0, s"no column '$name' in $schema")
    i
  }

  def colIdxs(names: Seq[String]): Vector[Int] = names.map(colIdx).toVector

  def col(name: String): SharedCol = cols(colIdx(name))

  /** The columns `names`, in that order, validity included. The parties
    * drop the other columns' shares, which costs nothing.
    */
  def only(names: Seq[String]): SharedRelation =
    if (names == schema) this else SharedRelation(names.toVector, colIdxs(names).map(cols), validity, fresh)

  /** The rows at public positions `idx`, validity included; not fresh. */
  def gather(idx: Array[Int]): SharedRelation =
    SharedRelation(schema, cols.map(_.gather(idx)), validity.map(_.gather(idx)))

  /** The first `k` rows (all of them if there are fewer), validity
    * included; not fresh.
    */
  def take(k: Int): SharedRelation = {
    val m = math.min(k, size)
    SharedRelation(schema, cols.map(_.slice(0, m)), validity.map(_.slice(0, m)))
  }
}
