package repro.core.baseline

import java.nio.ByteBuffer
import scala.collection.mutable.ArrayBuffer
import repro.core._

/** Order-0 byte-wise static rANS (asymmetric numeral systems, Duda 2013) —
  * the entropy-coding baseline of §4.1. Values are serialized little-endian
  * at `bytesPerValue` bytes, a global frequency table (normalized to 2^12)
  * is trained over the whole stream, and the stream is encoded in blocks of
  * `blockValues` values so "random access" decodes only a block prefix.
  * Below 8 bytes per value, a value outside `[0, 2^(8·bytesPerValue))` is
  * rejected: its dropped bytes would decode to a different value.
  */
final class RansCodec(val bytesPerValue: Int = 8, val blockValues: Int = 16384) extends IntCodec {
  require(bytesPerValue >= 1 && bytesPerValue <= 8, s"rANS width $bytesPerValue bytes per value, not 1..8")
  require(blockValues > 0, s"rANS block of $blockValues values")
  val name = "rANS"

  def compress(values: Array[Long]): RansCompressed = {
    val n = values.length
    // Global byte frequency table over the serialized stream.
    val counts = new Array[Long](256)
    var i = 0
    while (i < n) {
      val v = values(i)
      require(bytesPerValue == 8 || (v >>> (8 * bytesPerValue)) == 0,
              s"value $v does not fit in $bytesPerValue bytes")
      var b = 0
      while (b < bytesPerValue) { counts(((v >>> (8 * b)) & 0xff).toInt) += 1; b += 1 }
      i += 1
    }
    val freq = Rans.normalize(counts, n.toLong * bytesPerValue)
    val cum  = Rans.cumulative(freq)

    val blocks = new Array[Array[Byte]]((n + blockValues - 1) / blockValues)
    var blk = 0
    var s   = 0
    while (s < n) {
      val e = math.min(s + blockValues, n)
      blocks(blk) = Rans.encodeBlock(values, s, e, bytesPerValue, freq, cum)
      blk += 1; s = e
    }
    new RansCompressed(n, bytesPerValue, blockValues, freq, blocks)
  }
}

/** Minimal rANS with 8-bit renormalization (ryg-style), PROB_BITS = 12. */
object Rans {
  val ProbBits  = 12
  val ProbScale = 1 << ProbBits
  val Low       = 1L << 23

  /** Scale raw counts to sum exactly `ProbScale`, keeping every present
    * symbol's frequency >= 1.
    */
  def normalize(counts: Array[Long], total: Long): Array[Int] = {
    val freq = new Array[Int](256)
    if (total == 0) return freq
    var assigned = 0
    var i = 0
    while (i < 256) {
      if (counts(i) > 0) {
        freq(i) = math.max(1L, counts(i) * ProbScale / total).toInt
        assigned += freq(i)
      }
      i += 1
    }
    // Fix the rounding drift on the most frequent symbol.
    var maxI = 0
    i = 1
    while (i < 256) { if (counts(i) > counts(maxI)) maxI = i; i += 1 }
    freq(maxI) += ProbScale - assigned
    require(freq(maxI) >= 1, "frequency normalization failed (too many rare symbols)")
    freq
  }

  /** `cum(s)` is the sum of the frequencies of the symbols below `s`. */
  def cumulative(freq: Array[Int]): Array[Int] = {
    val cum = new Array[Int](257)
    var i = 0
    while (i < 256) { cum(i + 1) = cum(i) + freq(i); i += 1 }
    cum
  }

  /** Encode bytes of `values(from until until)` in reverse so the decoder
    * reads forward; renorm bytes plus the 4-byte final state are returned.
    */
  def encodeBlock(values: Array[Long], from: Int, until: Int, bpv: Int,
                  freq: Array[Int], cum: Array[Int]): Array[Byte] = {
    val out = new scala.collection.mutable.ArrayBuffer[Byte]((until - from) * bpv / 2 + 8)
    var x = Low
    var i = until - 1
    while (i >= from) {
      // bytes ascending here; the decoder (which reads the stream reversed)
      // then sees each value's bytes most-significant-first
      var b = 0
      while (b < bpv) {
        val sym  = ((values(i) >>> (8 * b)) & 0xff).toInt
        val f    = freq(sym)
        val xMax = ((Low >> ProbBits) << 8) * f
        while (x >= xMax) { out += (x & 0xff).toByte; x >>= 8 }
        x = ((x / f) << ProbBits) + (x % f) + cum(sym)
        b += 1
      }
      i -= 1
    }
    out += (x & 0xff).toByte; out += ((x >> 8) & 0xff).toByte
    out += ((x >> 16) & 0xff).toByte; out += ((x >> 24) & 0xff).toByte
    out.toArray
  }

  /** Decode `count` values from an encoded block into `out(outOff...)`.
    * Returns whether those values are the whole block: the decode read every
    * byte and left the state at `Low`, where the encoder started it. A
    * decode that would read before the block's start stops and returns false.
    */
  def decodeBlock(block: Array[Byte], count: Int, bpv: Int,
                  freq: Array[Int], cum: Array[Int], slotSym: Array[Byte],
                  out: Array[Long], outOff: Int): Boolean = {
    var p = block.length - 1
    var x = 0L
    x = (x << 8) | (block(p) & 0xffL); p -= 1
    x = (x << 8) | (block(p) & 0xffL); p -= 1
    x = (x << 8) | (block(p) & 0xffL); p -= 1
    x = (x << 8) | (block(p) & 0xffL); p -= 1
    var i = 0
    while (i < count) {
      var v = 0L
      var b = bpv - 1
      while (b >= 0) {
        val slot = (x & (ProbScale - 1)).toInt
        val sym  = slotSym(slot) & 0xff
        x = freq(sym) * (x >> ProbBits) + slot - cum(sym)
        while (x < Low) {
          if (p < 0) return false
          x = (x << 8) | (block(p) & 0xffL); p -= 1
        }
        v |= (sym.toLong << (8 * b))
        b -= 1
      }
      out(outOff + i) = v
      i += 1
    }
    p == -1 && x == Low
  }

  def slotTable(freq: Array[Int], cum: Array[Int]): Array[Byte] = {
    val t = new Array[Byte](ProbScale)
    var s = 0
    while (s < 256) {
      var k = cum(s)
      while (k < cum(s + 1)) { t(k) = s.toByte; k += 1 }
      s += 1
    }
    t
  }
}

/** Byte layout: `[n:i32][bpv:u8][blockValues:i32][256 × freq:u16]`, then
  * `[count:i32][len:i32][bytes]` per block, `count` its values. `cum` and
  * the slot table are rebuilt from `freq`.
  */
final class RansCompressed(val n: Int, val bpv: Int, val blockValues: Int,
                           val freq: Array[Int], val blocks: Array[Array[Byte]]) extends CompressedInts {
  private val cum     = Rans.cumulative(freq)
  private val slotSym = Rans.slotTable(freq, cum)
  def sizeBytes: Long = RansCompressed.HeaderBytes + blocks.iterator.map(8L + _.length).sum

  /** Values in block `blk`: `blockValues`, but in the last. */
  private def countOf(blk: Int): Int = math.min(blockValues, n - blk * blockValues)

  def writeTo(buf: ByteBuffer): Unit = {
    buf.putInt(n).put(bpv.toByte).putInt(blockValues)
    freq.foreach(f => buf.putShort(f.toShort))
    for (blk <- blocks.indices) buf.putInt(countOf(blk)).putInt(blocks(blk).length).put(blocks(blk))
  }

  /** Random access = decode the containing block's prefix. */
  def get(i: Int): Long = {
    val blk   = i / blockValues
    val inBlk = i % blockValues
    val tmp   = new Array[Long](inBlk + 1)
    Rans.decodeBlock(blocks(blk), inBlk + 1, bpv, freq, cum, slotSym, tmp, 0)
    tmp(inBlk)
  }

  def decompressAll(): Array[Long] = {
    val out = new Array[Long](n)
    decodeBlocks(out)
    out
  }

  /** Decodes every block into `out`; returns the first block whose values
    * are not the whole block, or -1.
    */
  private def decodeBlocks(out: Array[Long]): Int = {
    var bad = -1
    var blk = 0; var off = 0
    while (blk < blocks.length) {
      val count = countOf(blk)
      if (!Rans.decodeBlock(blocks(blk), count, bpv, freq, cum, slotSym, out, off) && bad < 0) bad = blk
      off += count; blk += 1
    }
    bad
  }
}

object RansCompressed {
  /** `[n:i32][bpv:u8][blockValues:i32][256 × freq:u16]`. */
  val HeaderBytes: Int = 4 + 1 + 4 + 256 * 2

  /** Reads the layout to the end of `buf`: every byte after the header
    * belongs to a block. Every block but the last holds `blockValues`
    * values, the counts sum to `n`, and each block must decode to exactly
    * its count, so an `n` wrong by less than a block is rejected even where
    * a block's bytes are all one symbol, which decodes to any count.
    */
  def read(buf: ByteBuffer): RansCompressed = {
    val n = buf.getInt; val bpv = buf.get() & 0xff; val blockValues = buf.getInt
    require(n >= 0, s"rANS holds $n values")
    require(bpv >= 1 && bpv <= 8, s"rANS width $bpv bytes per value, not 1..8")
    require(blockValues > 0, s"rANS block of $blockValues values")
    val freq  = Array.fill(256)(buf.getShort & 0xffff)
    val total = freq.sum
    require(total == Rans.ProbScale || (total == 0 && n == 0),
            s"rANS frequencies sum to $total, not ${Rans.ProbScale}")
    val blocks = ArrayBuffer.empty[Array[Byte]]
    var held = 0L // values in the blocks read so far
    while (buf.hasRemaining) {
      require(held == blocks.length.toLong * blockValues,
              s"rANS block ${blocks.length - 1} is not the last but holds fewer than $blockValues values")
      val count = buf.getInt
      require(count >= 1 && count <= blockValues, s"rANS block ${blocks.length} holds $count values, not 1..$blockValues")
      held += count
      val len = buf.getInt
      require(len <= buf.remaining,
              s"rANS block ${blocks.length} of $len bytes runs past the buffer's end (${buf.remaining} bytes left)")
      require(len >= 4, s"rANS block ${blocks.length} of $len bytes cannot hold its 4-byte state")
      val block = new Array[Byte](len)
      buf.get(block)
      blocks += block
    }
    require(held == n, s"rANS blocks hold $held values, expected $n")
    val c = new RansCompressed(n, bpv, blockValues, freq, blocks.toArray)
    val bad = c.decodeBlocks(new Array[Long](n))
    require(bad < 0, s"rANS block $bad does not decode to exactly ${c.countOf(bad)} values")
    c
  }
}
