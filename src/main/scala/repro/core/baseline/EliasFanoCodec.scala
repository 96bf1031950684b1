package repro.core.baseline

import java.nio.ByteBuffer
import repro.core._

/** Partitioned Elias-Fano (quasi-succinct) encoding of a sorted integer
  * sequence (§4.1). Each partition stores its base, the low `l` bits of each
  * value bit-packed, and the high bits as a unary-coded bitvector; sampled
  * select-1 positions for random access are rebuilt from it in memory.
  *
  * Only applies to (partition-wise) non-decreasing sequences — the bench
  * skips unsorted data sets, as the paper does for poisson/movieid.
  */
final class EliasFanoCodec(val partitionSize: Int = 0) extends IntCodec {
  val name = "Elias-Fano"

  def compress(values: Array[Long]): FixedPartitions[EfPartition] = {
    require(EliasFanoCodec.isSorted(values), "Elias-Fano requires a sorted sequence")
    FixedPartitions.encode(values, Partitioner.fixedSize(values, partitionSize, EliasFanoCodec.costAt))(EfPartition.encode)
  }
}

object EliasFanoCodec {
  def isSorted(values: Array[Long]): Boolean = {
    var i = 1
    while (i < values.length) { if (values(i) < values(i - 1)) return false; i += 1 }
    true
  }
  val costAt: SizeCost = new SizeCost(EfPartition.HeaderBytes) {
    def on(values: Array[Long]): (Int, Int) => Long = {
      val sorted = if (isSorted(values)) values else values.sorted
      EfPartition.encodedBytes(sorted, _, _)
    }
  }
}

/** One Elias-Fano partition: value `j` is `base + (hi << l | low(j))`, where
  * `hi` is the number of zeros before the `j`-th set bit of `high`.
  *
  * Byte layout: `[len:i32][base:i64][l:u8][highWords:i32]`, the low bits as
  * a `BitPack` payload, then the `highWords` words of `high` as a 64-bit
  * `BitPack` payload.
  */
final case class EfPartition(base: Long, l: Int, len: Int, low: Array[Long], high: Array[Long])
    extends EncodedPartition {
  /** Position of every `2^SampleShift`-th set bit of `high`; checks that
    * `high` holds exactly `len` set bits, so `select1` and `decodeInto`
    * stay inside it.
    */
  private val selectSamples: Array[Int] = {
    val samples = new Array[Int]((len >> EfPartition.SampleShift) + 1)
    var rank = 0L
    var w = 0
    while (w < high.length) {
      var word = high(w)
      while (word != 0) {
        if (rank < len && (rank & EfPartition.SampleMask) == 0)
          samples((rank >>> EfPartition.SampleShift).toInt) = (w << 6) + java.lang.Long.numberOfTrailingZeros(word)
        rank += 1; word &= word - 1
      }
      w += 1
    }
    require(rank == len, s"Elias-Fano high bits hold $rank values, expected $len")
    samples
  }

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
    base + ((hi.toLong << l) | BitPack.read(low, j, l))
  }

  def decodeInto(out: Array[Long], outOff: Int): Unit = {
    val lows = new BitPack.Reader(low, l)
    var j = 0; var pos = 0
    while (j < len) {
      // advance to the next set bit
      while ((high(pos >>> 6) & (1L << (pos & 63))) == 0) pos += 1
      val hi = pos - j
      out(outOff + j) = base + ((hi.toLong << l) | lows.next())
      pos += 1; j += 1
    }
  }

  def headerBytes: Int = EfPartition.HeaderBytes
  def sizeBytes: Long = EfPartition.sizeOf(len, l, high.length)

  def writeTo(buf: ByteBuffer): Unit = {
    buf.putInt(len).putLong(base).put(l.toByte).putInt(high.length)
    BitPack.putPayload(buf, low, len, l)
    BitPack.putPayload(buf, high, high.length, 64)
  }
}

object EfPartition {
  val SampleShift = 9 // one select sample per 512 set bits
  private val SampleMask = (1 << SampleShift) - 1
  /** `[len:i32][base:i64][l:u8][highWords:i32]`. */
  val HeaderBytes: Int = 4 + 8 + 1 + 4

  /** Low-bit width for `n` values over the universe `u`, read unsigned: a
    * partition may span 2^63 or more.
    */
  def lowBits(n: Int, u: Long): Int =
    if (u == 0 || n == 0) 0
    else math.max(0, BitPack.bitsFor(java.lang.Long.divideUnsigned(u, n)) - 1)

  /** Words of the high bitvector: `u >>> l` stays below `2n`. */
  private def highWords(n: Int, u: Long, l: Int): Int = (n + (u >>> l).toInt + 1 + 63) / 64

  private def sizeOf(len: Int, l: Int, highWords: Int): Long =
    HeaderBytes + BitPack.payloadBytes(len, l) + highWords * 8L

  /** `sizeBytes` of `encode(values, from, until)`, without encoding it. */
  def encodedBytes(values: Array[Long], from: Int, until: Int): Long = {
    val n = until - from
    val u = values(until - 1) - values(from)
    val l = lowBits(n, u)
    sizeOf(n, l, highWords(n, u, l))
  }

  def encode(values: Array[Long], from: Int, until: Int): EfPartition = {
    val n    = until - from
    val base = values(from)
    val u    = values(until - 1) - base
    val l    = lowBits(n, u)
    val low  = new BitPack.Writer(new Array[Long](BitPack.wordsFor(n, l)), l)
    val high = new Array[Long](highWords(n, u, l))
    var j = 0
    while (j < n) {
      val v  = values(from + j) - base
      low.put(v & ((1L << l) - 1))
      val pos = j + (v >>> l).toInt
      high(pos >>> 6) |= 1L << (pos & 63)
      j += 1
    }
    EfPartition(base, l, n, low.finish(), high)
  }

  def read(buf: ByteBuffer): EfPartition = {
    val len  = PartitionedInts.readLen(buf)
    val base = buf.getLong
    val l    = buf.get() & 0xff
    val hw   = buf.getInt
    require(l < 64 && hw >= 0, s"bad Elias-Fano header: $l low bits, $hw high words")
    val low  = BitPack.getPayload(buf, len, l)
    EfPartition(base, l, len, low, BitPack.getPayload(buf, hw, 64))
  }
}
