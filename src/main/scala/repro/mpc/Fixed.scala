package repro.mpc

/** Fixed-point encoding of relation values inside MPC.
  *
  * Secret sharing works over the ring Z_2^64; relation values (which are
  * doubles at the Spark layer) are encoded as 64-bit fixed-point with a
  * 2^16 scale — the same approach real Sharemind takes for non-integer
  * arithmetic. Integer-valued data round-trips exactly for |x| < 2^45, so
  * count/sum queries match the DuckDB oracle bit-for-bit; genuine fractions
  * (e.g. an HHI share) carry ~1.5e-5 granularity.
  */
object Fixed {
  val ScaleBits: Int = 16
  val Scale: Long = 1L << ScaleBits

  /** Largest encodable magnitude; beyond this, sums/products risk wrap. */
  val MaxAbs: Double = math.pow(2, 45)

  /** Whether `x` has an encoding: finite, with |x| <= 2^45. */
  def encodable(x: Double): Boolean = math.abs(x) <= MaxAbs // false for NaN

  def encode(x: Double): Long = {
    require(!x.isNaN && !x.isInfinite, s"cannot encode $x")
    require(math.abs(x) <= MaxAbs, s"fixed-point overflow: |$x| > 2^45")
    math.rint(x * Scale).toLong
  }

  /** [[encode]] of every value of `xs`, into a primitive array. */
  def encodeColumn(xs: Array[Double]): Array[Long] = {
    val out = new Array[Long](xs.length)
    var i = 0
    while (i < xs.length) { out(i) = encode(xs(i)); i += 1 }
    out
  }

  def decode(v: Long): Double = v.toDouble / Scale

  /** Rescale after a fixed-point multiply: (a*2^16)(b*2^16) -> ab*2^16. */
  def rescale(prod: Long): Long = prod >> ScaleBits

  /** A public constant larger than any encoded data value: what an invalid
    * row contributes to a MIN fold (and its negation to a MAX fold), so it
    * never wins.
    */
  val Big: Long = 1L << 62
}
