package repro.mpc

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.Props.{forAll, forAll2}

/** Value-level tests of the secret-sharing and garbled-circuit engines,
  * mostly through length-1 columns (the scalar view of the batch API).
  */
class EngineSpec extends AnyFunSuite {

  private implicit class Scalars(e: MpcEngine) {
    def in(x: Long): SharedCol = e.input(Array(x))
    def value(c: SharedCol): Long = e.open(c).head
  }

  private def freshSS(): SecretSharingEngine =
    new SecretSharingEngine(1L, new CostMeter(CostParams.Sharemind))
  private def freshGC(): GarbledCircuitEngine =
    new GarbledCircuitEngine(new CostMeter(CostParams.OblivC))

  private val smallLongs = Gen.chooseNum(-1000000L, 1000000L)

  test("secret sharing round-trips arbitrary ring elements") {
    val e = freshSS()
    forAll(smallLongs) { x => assert(e.value(e.in(x)) == x) }
  }

  test("shares of the same value differ (fresh randomness)") {
    val e = freshSS()
    val a = e.in(42L); val b = e.in(42L)
    assert(a.parts.map(_.toSeq).toSeq != b.parts.map(_.toSeq).toSeq)
    assert(e.value(a) == 42L && e.value(b) == 42L)
  }

  test("individual shares look uniform: no single share equals the secret") {
    val e = freshSS()
    val hits = (1 to 200).count { _ =>
      val s = e.in(123456789L).asInstanceOf[ShareCol]
      s.s1(0) == 123456789L || s.s2(0) == 123456789L || s.s3(0) == 123456789L
    }
    assert(hits == 0)
  }

  test("addition and subtraction are exact") {
    val e = freshSS()
    forAll2(smallLongs, smallLongs) { (x, y) =>
      assert(e.value(e.add(e.in(x), e.in(y))) == x + y)
      assert(e.value(e.sub(e.in(x), e.in(y))) == x - y)
    }
  }

  test("public addition and multiplication are exact and local") {
    val e = freshSS()
    val before = e.meter.muls
    forAll2(smallLongs, smallLongs) { (x, k) =>
      assert(e.value(e.addPub(e.in(x), k)) == x + k)
      assert(e.value(e.mulPub(e.in(x), k)) == x * k)
    }
    assert(e.meter.muls == before, "linear ops must not consume Beaver triples")
  }

  test("Beaver multiplication is exact") {
    val e = freshSS()
    forAll2(smallLongs, smallLongs) { (x, y) =>
      assert(e.value(e.mulRaw(e.in(x), e.in(y))) == x * y)
    }
  }

  test("Beaver multiplication charges exactly one triple") {
    val e = freshSS()
    val before = e.meter.muls
    e.mulRaw(e.in(3), e.in(4))
    assert(e.meter.muls == before + 1)
  }

  test("fixed-point multiply rescales correctly") {
    val e = freshSS()
    forAll2(Gen.chooseNum(-10000, 10000), Gen.chooseNum(-10000, 10000)) { (a, b) =>
      val got = Fixed.decode(e.value(e.mulFx(e.in(Fixed.encode(a)), e.in(Fixed.encode(b)))))
      assert(math.abs(got - a.toDouble * b) <= 1.0, s"$a*$b -> $got")
    }
  }

  test("fixed-point divide approximates real division") {
    val e = freshSS()
    forAll2(Gen.chooseNum(1, 100000), Gen.chooseNum(1, 1000)) { (a, b) =>
      val got = Fixed.decode(e.value(e.divFx(e.in(Fixed.encode(a)), e.in(Fixed.encode(b)))))
      assert(math.abs(got - a.toDouble / b) <= 1e-4 * math.max(1.0, a.toDouble / b))
    }
  }

  test("divFx rejects division by zero") {
    val e = freshSS()
    assertThrows[IllegalArgumentException](e.divFx(e.in(Fixed.encode(1)), e.in(0L)))
  }

  test("eq and lt produce correct 0/1 flags") {
    val e = freshSS()
    forAll2(smallLongs, smallLongs) { (x, y) =>
      assert(e.value(e.eq(e.in(x), e.in(y))) == (if (x == y) 1L else 0L))
      assert(e.value(e.lt(e.in(x), e.in(y))) == (if (x < y) 1L else 0L))
    }
  }

  test("mux selects by flag") {
    val e = freshSS()
    forAll2(smallLongs, smallLongs) { (x, y) =>
      assert(e.value(e.mux(e.in(1L), e.in(x), e.in(y))) == x)
      assert(e.value(e.mux(e.in(0L), e.in(x), e.in(y))) == y)
    }
  }

  test("mux draws, shares and charges exactly as sub, mulFlag and add on a twin engine") {
    def shares(c: SharedCol): Seq[Seq[Long]] = c.parts.map(_.toSeq).toSeq
    for (fresh <- Seq[() => MpcEngine](() => freshSS(), () => freshGC())) {
      val e = fresh(); val twin = fresh()
      def inputs(x: MpcEngine) =
        (x.input(Array(1L, 0L, 1L, 0L)), x.input(Array(5L, -3L, 7L, 0L)), x.input(Array(2L, 4L, 7L, -1L)))
      val (c, a, b) = inputs(e); val (tc, ta, tb) = inputs(twin)

      // Whole columns.
      val got = e.mux(c, a, b)
      val want = twin.add(tb, twin.mulFlag(tc, twin.sub(ta, tb)))
      assert(shares(got) == shares(want), e.name)
      assert(e.meter.snapshot == twin.meter.snapshot, e.name)

      // The offset form of the group fold: out aliases b, one element at a
      // time, the flag at position 0 of a length-1 column.
      val agg = e.input(Array(9L, 3L, 6L, 1L)); val tagg = twin.input(Array(9L, 3L, 6L, 1L))
      val tmp = twin.alloc(1)
      (1 until 4).foreach { i =>
        val flag = e.in(i % 2L); val tflag = twin.in(i % 2L)
        e.mux(flag, agg, agg, agg, 1, ai = i - 1, bi = i, oi = i)
        twin.sub(tagg, tagg, tmp, 1, ai = i - 1, bi = i)
        twin.mulFlag(tflag, tmp, tmp, 1)
        twin.add(tagg, tmp, tagg, 1, ai = i, oi = i)
      }
      assert(shares(agg) == shares(tagg), e.name)
      assert(e.meter.snapshot == twin.meter.snapshot, e.name)
      assert(e.open(got).toSeq == Seq(5L, 4L, 7L, -1L) && e.open(agg).toSeq == Seq(9L, 9L, 6L, 6L), e.name)
      assert(twin.open(want).toSeq == Seq(5L, 4L, 7L, -1L) && twin.open(tagg).toSeq == Seq(9L, 9L, 6L, 6L))
    }
  }

  test("not and and implement boolean logic on flags") {
    val e = freshSS()
    for (a <- Seq(0L, 1L); b <- Seq(0L, 1L)) {
      assert(e.value(e.not(e.in(a))) == 1L - a)
      assert(e.value(e.and(e.in(a), e.in(b))) == a * b)
    }
  }

  test("engines reject foreign values") {
    val ss = freshSS(); val gc = freshGC()
    assertThrows[IllegalArgumentException](ss.add(ss.in(1), gc.in(1)))
    assertThrows[IllegalArgumentException](gc.add(gc.in(1), ss.in(1)))
  }

  test("secretPermutation is a permutation") {
    val e = freshSS()
    val p = e.secretPermutation(257)
    assert(p.sorted.toSeq == (0 until 257))
  }

  test("eq/lt/cmp operations are metered") {
    val e = freshSS()
    e.eq(e.in(1), e.in(2)); e.lt(e.in(1), e.in(2))
    assert(e.meter.eqs == 1 && e.meter.cmps == 1)
  }

  test("garbled-circuit engine computes the same arithmetic") {
    val e = freshGC()
    assert(e.value(e.add(e.in(3), e.in(4))) == 7L)
    assert(e.value(e.mulRaw(e.in(3), e.in(4))) == 12L)
    assert(e.value(e.eq(e.in(3), e.in(3))) == 1L)
    assert(e.value(e.lt(e.in(3), e.in(4))) == 1L)
    assert(Fixed.decode(e.value(e.mulFx(e.in(Fixed.encode(2.0)), e.in(Fixed.encode(3.0))))) == 6.0)
  }

  test("garbled-circuit engine meters gates, not triples") {
    val e = freshGC()
    e.mulRaw(e.in(3), e.in(4))
    assert(e.meter.gates > 0 && e.meter.muls == 0)
  }

  test("openMany charges one round for a batch") {
    val e = freshSS()
    val before = e.meter.rounds
    val out = e.open(e.input((1L to 50L).toArray))
    assert(out.toSeq == (1L to 50L))
    assert(e.meter.rounds == before + 1)
  }

  test("batch operations act elementwise over whole columns") {
    for (e <- Seq[MpcEngine](freshSS(), freshGC())) {
      val xs = Array(5L, -3L, 7L, 0L); val ys = Array(2L, 4L, 7L, -1L)
      val a = e.input(xs); val b = e.input(ys)
      assert(e.open(e.add(a, b)).toSeq == xs.zip(ys).map { case (x, y) => x + y }.toSeq)
      assert(e.open(e.mulRaw(a, b)).toSeq == xs.zip(ys).map { case (x, y) => x * y }.toSeq)
      assert(e.open(e.lt(a, b)).toSeq == Seq(0L, 1L, 0L, 0L))
      assert(e.open(e.eq(a, b)).toSeq == Seq(0L, 0L, 1L, 0L))
      assert(e.open(e.mux(e.input(Array(1L, 0L, 1L, 0L)), a, b)).toSeq == Seq(5L, 4L, 7L, -1L))
    }
  }

  test("offset form runs a sub-range in place, one element at a time") {
    val e = freshSS()
    val acc = e.input(Array(1L, 2L, 3L, 4L))
    // prefix sums: acc(i) += acc(i - 1)
    (1 until 4).foreach(i => e.add(acc, acc, acc, 1, ai = i, bi = i - 1, oi = i))
    assert(e.open(acc).toSeq == Seq(1L, 3L, 6L, 10L))
    val before = e.meter.muls
    e.mulRaw(acc, acc, acc, 2, ai = 2, bi = 0, oi = 2) // acc(2..3) *= acc(0..1)
    assert(e.open(acc).toSeq == Seq(1L, 3L, 6L, 30L))
    assert(e.meter.muls == before + 2)
  }

  test("batch operations reject columns of different lengths") {
    val e = freshSS()
    assertThrows[IllegalArgumentException](e.add(e.input(Array(1L, 2L)), e.in(1L)))
  }

  test("fixed-point encode/decode round-trips integers exactly") {
    forAll(Gen.chooseNum(-1000000000L, 1000000000L)) { x =>
      assert(Fixed.decode(Fixed.encode(x.toDouble)) == x.toDouble)
    }
  }

  test("fixed-point encode rejects overflow and non-finite values") {
    assertThrows[IllegalArgumentException](Fixed.encode(math.pow(2, 46)))
    assertThrows[IllegalArgumentException](Fixed.encode(Double.NaN))
    assertThrows[IllegalArgumentException](Fixed.encode(Double.PositiveInfinity))
  }

  test("modeledSeconds combines counters with backend constants") {
    val m = new CostMeter(CostParams.Sharemind)
    m.addEq(100); m.addCmp(10); m.addRows(1000)
    val expected = 100 * CostParams.Sharemind.eq + 10 * CostParams.Sharemind.cmp +
      1000 * CostParams.Sharemind.rowTouch
    assert(math.abs(m.modeledSeconds - expected) < 1e-12)
  }

  test("cost meter reset clears all counters") {
    val m = new CostMeter(CostParams.Sharemind)
    m.addEq(5); m.addMul(5); m.addRows(5); m.reset()
    assert(m.modeledSeconds == 0.0 && m.snapshot.eqs == 0)
  }

  test("a fork of either engine has a fresh meter with the same params") {
    Seq[MpcEngine](freshSS(), freshGC()).foreach { e =>
      e.mulRaw(e.in(3), e.in(4))
      val f = e.fork()
      assert(f.getClass == e.getClass)
      assert(f.meter ne e.meter)
      assert(f.meter.params == e.meter.params)
      assert(f.meter.snapshot == new CostMeter(e.meter.params).snapshot)
      val before = e.meter.snapshot
      f.mulRaw(f.in(3), f.in(4))
      assert(e.meter.snapshot == before && f.meter.modeledSeconds > 0, "a fork charges its own meter")
    }
  }

  test("absorb sums every counter and keeps the larger peak memory") {
    def meter(k: Long, peak: Long): CostMeter = {
      val m = new CostMeter(CostParams.OblivC)
      m.addRows(k); m.addEq(2 * k); m.addCmp(3 * k); m.addMul(4 * k); m.addRound(5 * k)
      m.addShuffle(6 * k); m.addGates(7 * k); m.addSetup(8 * k); m.checkMem("op", peak)
      m
    }
    val a = meter(1, peak = 100); a.absorb(meter(10, peak = 50))
    assert(a.snapshot == meter(11, peak = 100).snapshot)
    val b = meter(1, peak = 50); b.absorb(meter(10, peak = 100))
    assert(b.snapshot == meter(11, peak = 100).snapshot)
  }

  test("input shared by a forked secret-sharing engine reconstructs exactly") {
    val e = freshSS()
    val f = e.fork()
    forAll(smallLongs) { x => assert(f.value(f.in(x)) == x) }
    val a = e.in(42L); val b = f.in(42L)
    assert(a.parts.map(_.toSeq).toSeq != b.parts.map(_.toSeq).toSeq, "a fork draws its own shares")
    assert(e.value(b) == 42L)
  }

  test("garbled-circuit memory model OOMs above the ceiling") {
    val m = new CostMeter(CostParams.OblivC)
    val e = new GarbledCircuitEngine(m)
    // Join width: 8192 words * 16 B = 128 KiB per record; 4 GiB ceiling
    // -> OOM just above 32k records (the paper's ~30k anchor).
    e.checkRelationMem("join", 30000, GcOpWidth.Join) // below ceiling
    assertThrows[MpcOutOfMemory](e.checkRelationMem("join", 35000, GcOpWidth.Join))
  }

  test("projection memory ceiling sits near 300k records (Fig. 1c anchor)") {
    val m = new CostMeter(CostParams.OblivC)
    val e = new GarbledCircuitEngine(m)
    e.checkRelationMem("project", 300000, GcOpWidth.Projection)
    assertThrows[MpcOutOfMemory](e.checkRelationMem("project", 340000, GcOpWidth.Projection))
  }
}
