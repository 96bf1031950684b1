package repro.core.baseline

import java.nio.ByteBuffer
import org.scalatest.funsuite.AnyFunSuite
import repro.core.FixedPartitions

class EliasFanoSpec extends AnyFunSuite {

  test("rejects unsorted input") {
    intercept[IllegalArgumentException](new EliasFanoCodec(16).compress(Array(5L, 3L)))
  }

  test("isSorted detects order") {
    assert(EliasFanoCodec.isSorted(Array(1L, 2L, 2L, 9L)))
    assert(!EliasFanoCodec.isSorted(Array(1L, 0L)))
  }

  test("dense consecutive integers") {
    val vals = Array.tabulate(10_000)(i => 100L + i)
    val c = new EliasFanoCodec(1024).compress(vals)
    assert(c.decompressAll().sameElements(vals))
    (0 until 10_000 by 97).foreach(i => assert(c.get(i) == vals(i)))
  }

  test("sparse universe") {
    val r = new scala.util.Random(1)
    val vals = Array.fill(5000)(math.abs(r.nextLong()) % (1L << 45)).sorted
    val c = new EliasFanoCodec(512).compress(vals)
    assert(c.decompressAll().sameElements(vals))
    (0 until 5000 by 53).foreach(i => assert(c.get(i) == vals(i)))
  }

  test("duplicates allowed") {
    val vals = Array(5L, 5L, 5L, 8L, 8L, 12L)
    val c = new EliasFanoCodec(6).compress(vals)
    assert(c.decompressAll().sameElements(vals))
    vals.indices.foreach(i => assert(c.get(i) == vals(i)))
  }

  test("all-equal partition (universe 0)") {
    val vals = Array.fill(100)(42L)
    val c = new EliasFanoCodec(100).compress(vals)
    assert(c.decompressAll().sameElements(vals))
    assert(c.get(57) == 42L)
  }

  test("select sampling path across >512 set bits") {
    val vals = Array.tabulate(5000)(i => 3L * i)
    val c = new EliasFanoCodec(5000).compress(vals) // one partition, exercises samples
    (0 until 5000 by 7).foreach(i => assert(c.get(i) == vals(i)))
    assert(c.get(4999) == vals(4999))
  }

  test("size near the quasi-succinct bound on uniform data") {
    val r = new scala.util.Random(2)
    val n = 100_000
    val vals = Array.fill(n)(math.abs(r.nextLong()) % (1L << 40)).sorted
    val c = new EliasFanoCodec(8192).compress(vals)
    // EF bound: n*(2 + log2(u/n)) bits ≈ n*(2+23)/8 bytes; allow 2x slack
    val bound = n.toLong * (2 + 23) / 8
    assert(c.sizeBytes < 2 * bound, s"${c.sizeBytes} vs bound $bound")
  }

  test("lowBits computation") {
    assert(EfPartition.lowBits(1024, 1L << 20) == 10)
    assert(EfPartition.lowBits(10, 0) == 0)
    assert(EfPartition.lowBits(5, -1L) == 61) // a universe of 2^64 - 1, read unsigned
  }

  test("the size search's encodedBytes is the length writeTo writes") {
    val r = new scala.util.Random(3)
    for (vals <- Seq(Array(9L), Array.fill(700)(4L), Array.tabulate(5000)(i => 3L * i),
                     Array.fill(2000)(r.nextLong()).sorted)) {
      val p   = EfPartition.encode(vals, 0, vals.length)
      val buf = ByteBuffer.allocate(p.sizeBytes.toInt)
      p.writeTo(buf)
      assert(!buf.hasRemaining && EfPartition.encodedBytes(vals, 0, vals.length) == p.sizeBytes)
    }
  }

  test("a high bitvector that does not hold one set bit per value is rejected") {
    val bytes = new EliasFanoCodec(64).compress(Array.tabulate(130)(i => 3L * i)).toBytes
    val at  = 8 + 4 + 8 + 1 // layout prefix, then the first partition's len, base and l
    val buf = ByteBuffer.wrap(bytes)
    buf.putInt(at, buf.getInt(at) - 1) // its last high word, which holds set bits, is dropped
    val e = intercept[IllegalArgumentException](FixedPartitions.read(buf)(EfPartition.read))
    assert(e.getMessage.endsWith("Elias-Fano high bits hold 52 values, expected 64"))
  }
}
