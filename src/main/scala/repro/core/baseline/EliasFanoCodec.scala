package repro.core.baseline

import repro.core._

/** Partitioned Elias-Fano (quasi-succinct) encoding of a sorted integer
  * sequence (§4.1). Each partition stores its base, the low `l` bits of each
  * value bit-packed, and the high bits as a unary-coded bitvector with
  * sampled select-1 positions for random access.
  *
  * Only applies to (partition-wise) non-decreasing sequences — the bench
  * skips unsorted data sets, as the paper does for poisson/movieid.
  */
final class EliasFanoCodec(val partitionSize: Int = 0) extends IntCodec {
  val name = "Elias-Fano"

  def compress(values: Array[Long]): EliasFanoCompressed = {
    require(EliasFanoCodec.isSorted(values), "Elias-Fano requires a sorted sequence")
    val size = Partitioner.fixedSize(values, partitionSize, EliasFanoCodec.costAt)
    new EliasFanoCompressed(values.length, size, Partitioner.encodeFixed(values, size)(EfPartition.encode))
  }
}

object EliasFanoCodec {
  def isSorted(values: Array[Long]): Boolean = {
    var i = 1
    while (i < values.length) { if (values(i) < values(i - 1)) return false; i += 1 }
    true
  }
  def costAt(sample: Array[Long], l: Int): Long = {
    val sorted = if (isSorted(sample)) sample else sample.sorted
    Partitioner.fixedCost(sorted, l)(EfPartition.encodedBytes(sorted, _, _))
  }
}

final case class EfPartition(base: Long, l: Int, len: Int,
                             low: Array[Long], high: Array[Long],
                             selectSamples: Array[Int]) {
  /** select-1(j) on `high` via the nearest sampled set-bit position plus a
    * popcount scan forward from it.
    */
  @inline private def select1(j: Int): Int = {
    val s    = j >>> EfPartition.SampleShift
    var base = s << EfPartition.SampleShift // rank of the sampled set bit
    val pos  = selectSamples(s)             // its bit position
    if (base == j) return pos
    var w    = pos >>> 6
    var word = high(w) & ~((1L << (pos & 63)) - 1)
    word &= word - 1 // drop the sampled bit itself
    base += 1
    while (true) {
      val pc = java.lang.Long.bitCount(word)
      if (base + pc > j) {
        var k = j - base
        while (k > 0) { word &= word - 1; k -= 1 }
        return (w << 6) + java.lang.Long.numberOfTrailingZeros(word)
      }
      base += pc; w += 1; word = high(w)
    }
    -1
  }

  def get(j: Int): Long = {
    val hi = select1(j) - j
    base + ((hi.toLong << l) | (if (l == 0) 0L else BitPack.read(low, j, l)))
  }

  def decodeInto(out: Array[Long], outOff: Int): Unit = {
    var j = 0; var pos = 0
    while (j < len) {
      // advance to the next set bit
      while ((high(pos >>> 6) & (1L << (pos & 63))) == 0) pos += 1
      val hi = pos - j
      out(outOff + j) = base + ((hi.toLong << l) | (if (l == 0) 0L else BitPack.read(low, j, l)))
      pos += 1; j += 1
    }
  }

  def sizeBytes: Long =
    Codec.SimpleHeaderBytes + (len.toLong * l + 7) / 8 + high.length.toLong * 8 +
      selectSamples.length.toLong * 4
}

object EfPartition {
  val SampleShift = 9 // one select sample per 512 set bits

  def lowBits(n: Int, universe: Long): Int =
    if (universe <= 0 || n == 0) 0
    else math.max(0, BitPack.bitsFor(universe / n) - 1)

  def encodedBytes(values: Array[Long], from: Int, until: Int): Long = {
    val n = until - from
    val u = values(until - 1) - values(from)
    val l = lowBits(n, u)
    val highLen = n + (u >>> l).toInt + 1
    Codec.SimpleHeaderBytes + (n.toLong * l + 7) / 8 + ((highLen + 63) / 64).toLong * 8 +
      (((n >> SampleShift) + 1).toLong * 4)
  }

  def encode(values: Array[Long], from: Int, until: Int): EfPartition = {
    val n    = until - from
    val base = values(from)
    val u    = values(until - 1) - base
    val l    = lowBits(n, u)
    val low  = new Array[Long](BitPack.wordsFor(n, l))
    val high = new Array[Long]((n + (u >>> l).toInt + 1 + 63) / 64)
    val samples = new Array[Int]((n >> SampleShift) + 1)
    var j = 0
    while (j < n) {
      val v  = values(from + j) - base
      if (l > 0) BitPack.write(low, j.toLong * l, l, v & ((1L << l) - 1))
      val pos = j + (v >>> l).toInt
      high(pos >>> 6) |= 1L << (pos & 63)
      if ((j & ((1 << SampleShift) - 1)) == 0) samples(j >>> SampleShift) = pos
      j += 1
    }
    EfPartition(base, l, n, low, high, samples)
  }
}

final class EliasFanoCompressed(val n: Int, val partSize: Int,
                                val parts: Array[EfPartition]) extends CompressedInts {
  def sizeBytes: Long = parts.iterator.map(_.sizeBytes).sum
  def get(i: Int): Long = parts(i / partSize).get(i % partSize)
  def decompressAll(): Array[Long] = {
    val out = new Array[Long](n)
    var off = 0; var k = 0
    while (k < parts.length) { parts(k).decodeInto(out, off); off += parts(k).len; k += 1 }
    out
  }
}
