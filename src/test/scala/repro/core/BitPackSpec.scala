package repro.core

import org.scalatest.funsuite.AnyFunSuite

class BitPackSpec extends AnyFunSuite {

  test("bitsFor(0) == 0") { assert(BitPack.bitsFor(0) == 0) }
  test("bitsFor(1) == 1") { assert(BitPack.bitsFor(1) == 1) }
  test("bitsFor(2) == 2") { assert(BitPack.bitsFor(2) == 2) }
  test("bitsFor(255) == 8") { assert(BitPack.bitsFor(255) == 8) }
  test("bitsFor(256) == 9") { assert(BitPack.bitsFor(256) == 9) }
  test("bitsFor(Long.MaxValue) == 63") { assert(BitPack.bitsFor(Long.MaxValue) == 63) }
  test("bitsFor reads a negative value as unsigned") {
    assert(BitPack.bitsFor(-1) == 64 && BitPack.bitsFor(Long.MinValue) == 64)
  }

  test("wordsFor exact boundaries") {
    assert(BitPack.wordsFor(0, 7) == 0)
    assert(BitPack.wordsFor(64, 1) == 1)
    assert(BitPack.wordsFor(65, 1) == 2)
    assert(BitPack.wordsFor(8, 8) == 1)
    assert(BitPack.wordsFor(9, 8) == 2)
    assert(BitPack.wordsFor(3, 64) == 3)
  }

  test("width 0 stores nothing and reads zeros") {
    val w = BitPack.pack(Array(0L, 0L, 0L), 0)
    assert(w.length == 0)
    // readAt with width 0 must be 0 regardless
    assert(BitPack.readAt(Array(0xffffffffffffffffL), 5, 0) == 0)
  }

  for (b <- Seq(1, 3, 7, 8, 12, 13, 31, 32, 33, 63, 64)) {
    test(s"pack/read roundtrip at width $b") {
      val r = new scala.util.Random(b)
      val max = if (b == 64) Long.MaxValue else (1L << (b - 1)) // keep values in range
      val vals = Array.fill(257)(math.abs(r.nextLong()) % math.max(1, max))
      val words = BitPack.pack(vals, b)
      vals.indices.foreach(i => assert(BitPack.read(words, i, b) == vals(i), s"at $i"))
      assert(BitPack.unpackAll(words, vals.length, b).sameElements(vals))
    }
  }

  test("pack rejects out-of-range values") {
    intercept[IllegalArgumentException](BitPack.pack(Array(8L), 3))
  }

  test("cross-word boundary values survive") {
    // width 60: values straddle word boundaries constantly
    val vals = Array.tabulate(100)(i => (1L << 59) + i)
    val words = BitPack.pack(vals, 60)
    vals.indices.foreach(i => assert(BitPack.read(words, i, 60) == vals(i)))
  }

  test("write at arbitrary bit offsets composes") {
    val words = new Array[Long](4)
    BitPack.write(words, 3, 5, 21)
    BitPack.write(words, 61, 10, 1000) // straddles word 0/1
    assert(BitPack.readAt(words, 3, 5) == 21)
    assert(BitPack.readAt(words, 61, 10) == 1000)
  }

  test("randomized widths and lengths roundtrip (200 cases)") {
    val r = new scala.util.Random(12345)
    for (_ <- 1 to 200) {
      val b = 1 + r.nextInt(64)
      val n = 1 + r.nextInt(500)
      val mask = if (b == 64) -1L else (1L << b) - 1
      val safe = Array.fill(n)(r.nextLong() & mask & Long.MaxValue)
      val words = BitPack.pack(safe, b)
      assert(BitPack.unpackAll(words, n, b).sameElements(safe), s"b=$b n=$n")
    }
  }
}
