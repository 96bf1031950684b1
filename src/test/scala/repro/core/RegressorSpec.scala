package repro.core

import org.scalatest.funsuite.AnyFunSuite

class RegressorSpec extends AnyFunSuite {

  private def deltas(values: Array[Long], fit: Fit): Array[Long] =
    Array.tabulate(values.length)(i => values(i) - fit.predict(i))

  test("single value fits exactly with width 0") {
    val fit = Regressor.fitLinear(Array(42L), 0, 1)
    assert(fit.bitWidth == 0)
    assert(fit.predict(0) == 42L)
  }

  test("perfect arithmetic progression needs width 0") {
    val vals = Array.tabulate(100)(i => 10L + 7L * i)
    val fit = Regressor.fitLinear(vals, 0, vals.length)
    assert(fit.bitWidth == 0, s"got width ${fit.bitWidth}")
    vals.indices.foreach(i => assert(fit.predict(i) == vals(i)))
  }

  test("constant sequence needs width 0 under linear fit") {
    val vals = Array.fill(50)(999L)
    val fit = Regressor.fitLinear(vals, 0, vals.length)
    assert(fit.bitWidth == 0)
  }

  test("deltas are non-negative after bias folding") {
    val r = new scala.util.Random(7)
    val vals = Array.tabulate(200)(i => 5L * i + r.nextInt(100))
    val fit = Regressor.fitLinear(vals, 0, vals.length)
    val ds = deltas(vals, fit)
    assert(ds.forall(_ >= 0))
    assert(ds.forall(d => BitPack.bitsFor(d) <= fit.bitWidth))
  }

  test("delta range is tight: some delta is 0 and some needs full width") {
    val r = new scala.util.Random(8)
    val vals = Array.tabulate(500)(i => 3L * i + r.nextInt(64))
    val fit = Regressor.fitLinear(vals, 0, vals.length)
    val ds = deltas(vals, fit)
    assert(ds.min == 0, "min delta must be folded to exactly 0")
    assert(fit.bitWidth == BitPack.bitsFor(ds.max))
  }

  test("theta0-tweak equivalence: width = bits(deltaMax - deltaMin) of the LSM fit") {
    val r = new scala.util.Random(9)
    val vals = Array.tabulate(300)(i => 11L * i + r.nextInt(1000))
    // independent plain-LSM computation
    val n = vals.length
    val xs = (0 until n).map(_.toDouble)
    val mx = xs.sum / n; val my = vals.map(_.toDouble).sum / n
    val t1 = xs.zip(vals).map { case (x, y) => (x - mx) * (y - my) }.sum /
             xs.map(x => (x - mx) * (x - mx)).sum
    val t0 = my - t1 * mx
    val raw = Array.tabulate(n)(i => vals(i) - math.floor(t0 + t1 * i).toLong)
    val expected = BitPack.bitsFor(raw.max - raw.min)
    assert(Regressor.fitLinear(vals, 0, n).bitWidth == expected)
  }

  test("fitLinear on a subrange ignores outside values") {
    val vals = Array(1000L, -5L, 0L, 5L, 10L, 15L, 99999L)
    val fit = Regressor.fitLinear(vals, 1, 6)
    assert(fit.bitWidth == 0) // interior is a clean progression
    (1 until 6).foreach(i => assert(fit.predict(i - 1) == vals(i)))
  }

  test("the constant model (FOR) is anchored at the minimum") {
    val vals = Array(17L, 3L, 9L, 30L)
    val p = LecoPartition.encodeConstant(vals, 0, 4)
    assert(p.anchor == 3L)
    assert(p.slope == 0)
    assert(p.width == BitPack.bitsFor(27))
  }

  test("the constant model on identical values has width 0 (RLE special case)") {
    assert(LecoPartition.encodeConstant(Array.fill(20)(5L), 0, 20).width == 0)
  }

  test("linear fit never worse than constant fit (width)") {
    val r = new scala.util.Random(10)
    for (trial <- 1 to 30) {
      val vals = Array.tabulate(64)(i => trial.toLong * i + r.nextInt(1 << (trial % 16 + 1)))
      val lin = Regressor.fitLinear(vals, 0, vals.length).bitWidth
      val con = LecoPartition.encodeConstant(vals, 0, vals.length).width
      // the LSM slope optimizes l2, not max-width: allow one bit of slack
      assert(lin <= con + 1, s"trial $trial: linear $lin > constant $con + 1")
    }
  }

  test("negative slopes are handled") {
    val vals = Array.tabulate(100)(i => 100000L - 13L * i)
    val fit = Regressor.fitLinear(vals, 0, vals.length)
    assert(fit.bitWidth == 0)
    assert(fit.slope < 0)
  }

  test("negative values are handled") {
    val r = new scala.util.Random(11)
    val vals = Array.tabulate(100)(i => -50000L + 9L * i + r.nextInt(20))
    val fit = Regressor.fitLinear(vals, 0, vals.length)
    val ds = deltas(vals, fit)
    assert(ds.forall(_ >= 0))
    assert(ds.forall(d => BitPack.bitsFor(d) <= fit.bitWidth))
  }

  test("linearDeltaBits equals fitLinear width") {
    val r = new scala.util.Random(12)
    val vals = Array.fill(128)(r.nextInt(100000).toLong)
    assert(PartitionerSpec.linearDeltaBits(vals, 10, 90) ==
           Regressor.fitLinear(vals, 10, 90).bitWidth)
  }

  test("two-point fit is exact") {
    val fit = Regressor.fitLinear(Array(10L, 20L), 0, 2)
    assert(fit.bitWidth == 0)
    assert(fit.predict(0) == 10L)
    assert(fit.predict(1) == 20L)
  }
}
