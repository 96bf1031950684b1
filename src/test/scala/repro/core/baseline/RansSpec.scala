package repro.core.baseline

import org.scalatest.funsuite.AnyFunSuite

class RansSpec extends AnyFunSuite {

  test("frequency normalization sums to ProbScale") {
    val counts = new Array[Long](256)
    counts(0) = 1000; counts(7) = 50; counts(200) = 1
    val f = Rans.normalize(counts, 1051)
    assert(f.sum == Rans.ProbScale)
    assert(f(7) > 0 && f(200) > 0)
  }

  test("normalization keeps rare symbols representable") {
    val counts = new Array[Long](256)
    (0 until 100).foreach(i => counts(i) = 1)
    counts(0) = 1_000_000
    val f = Rans.normalize(counts, 1_000_099)
    (1 until 100).foreach(i => assert(f(i) >= 1))
    assert(f.sum == Rans.ProbScale)
  }

  test("roundtrip skewed bytes") {
    val r = new scala.util.Random(1)
    val vals = Array.fill(50_000)((r.nextInt(16)).toLong) // low entropy
    val c = new RansCodec(8, 4096).compress(vals)
    assert(c.decompressAll().sameElements(vals))
  }

  test("roundtrip full-range 64-bit values") {
    val r = new scala.util.Random(2)
    val vals = Array.fill(10_000)(r.nextLong())
    val c = new RansCodec(8, 2048).compress(vals)
    assert(c.decompressAll().sameElements(vals))
  }

  test("roundtrip 4-byte values at width 4") {
    val r = new scala.util.Random(3)
    val vals = Array.fill(10_000)(r.nextInt(Int.MaxValue).toLong)
    val c = new RansCodec(4, 2048).compress(vals)
    assert(c.decompressAll().sameElements(vals))
  }

  test("a value outside the declared width is rejected before encoding") {
    for ((vals, v) <- Seq(Array(-1L, 5L, -300000L) -> -1L, Array(1L << 40, 3L) -> (1L << 40), Array(0L, 1L << 32) -> (1L << 32))) {
      val e = intercept[IllegalArgumentException](new RansCodec(4, 16).compress(vals))
      assert(e.getMessage.endsWith(s"value $v does not fit in 4 bytes"))
    }
    val top = Array(0L, 0xffffffffL)
    assert(new RansCodec(4, 16).compress(top).decompressAll().sameElements(top))
  }

  test("random access decodes block prefixes correctly") {
    val r = new scala.util.Random(4)
    val vals = Array.fill(9000)(r.nextInt(1000).toLong)
    val c = new RansCodec(8, 1024).compress(vals)
    Seq(0, 1, 1023, 1024, 5000, 8999).foreach(i => assert(c.get(i) == vals(i), s"at $i"))
  }

  test("compresses low-entropy data well below raw") {
    val vals = Array.fill(100_000)(7L)
    val c = new RansCodec(8).compress(vals)
    assert(c.sizeBytes < vals.length, s"${c.sizeBytes}") // far below 800KB raw
  }

  test("single-value input") {
    val c = new RansCodec(8).compress(Array(123456789L))
    assert(c.decompressAll().sameElements(Array(123456789L)))
    assert(c.get(0) == 123456789L)
  }

  test("incompressible data stays near 1x (entropy limit)") {
    val r = new scala.util.Random(5)
    val vals = Array.fill(20_000)(r.nextLong())
    val c = new RansCodec(8).compress(vals)
    val ratio = c.sizeBytes.toDouble / (vals.length * 8L)
    assert(ratio > 0.95 && ratio < 1.1, s"ratio $ratio")
  }
}
