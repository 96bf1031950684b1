package repro.core.baseline

import java.nio.ByteBuffer
import repro.core._

/** Shared encoding of one Delta partition: explicit first value + zigzag
  * adjacent diffs bit-packed at the partition's max diff width. Random
  * access must decode the partition prefix sequentially — the order-of-
  * magnitude access penalty §4.3.2 reports.
  *
  * Byte layout: `[len:i32][first:i64][width:u8]` + the `len - 1` diffs.
  */
final case class DeltaPartition(first: Long, width: Int, len: Int, words: Array[Long]) extends EncodedPartition {
  @inline private def unzig(z: Long): Long = (z >>> 1) ^ -(z & 1L)

  /** Decode value at in-partition position `j` (O(j) scan). */
  def get(j: Int): Long = {
    if (width == 0) return first // every diff is 0
    val diffs = new BitPack.Reader(words, width)
    var v = first
    var k = 0
    while (k < j) { v += unzig(diffs.next()); k += 1 }
    v
  }

  def decodeInto(out: Array[Long], outOff: Int): Unit = {
    val diffs = new BitPack.Reader(words, width)
    var v = first
    out(outOff) = v
    var k = 1
    while (k < len) { v += unzig(diffs.next()); out(outOff + k) = v; k += 1 }
  }

  def headerBytes: Int = Codec.SimpleHeaderBytes
  def sizeBytes: Long = headerBytes + BitPack.payloadBytes(len - 1, width)

  def writeTo(buf: ByteBuffer): Unit = {
    buf.putInt(len).putLong(first).put(width.toByte)
    BitPack.putPayload(buf, words, len - 1, width)
  }
}

object DeltaPartition {
  def encode(values: Array[Long], from: Int, until: Int): DeltaPartition = {
    val n = until - from
    var maxZ = 0L // unsigned: a diff of 2^62 or more zigzags past Long.MaxValue
    var k = from + 1
    while (k < until) {
      val z = zigzag(values(k) - values(k - 1))
      if (java.lang.Long.compareUnsigned(z, maxZ) > 0) maxZ = z
      k += 1
    }
    val b = BitPack.bitsFor(maxZ)
    val out = new BitPack.Writer(new Array[Long](BitPack.wordsFor(n - 1, b)), b)
    k = from + 1
    while (k < until) { out.put(zigzag(values(k) - values(k - 1))); k += 1 }
    DeltaPartition(values(from), b, n, out.finish())
  }

  def read(buf: ByteBuffer): DeltaPartition = {
    val len = PartitionedInts.readLen(buf)
    val first = buf.getLong
    val width = PartitionedInts.checkWidth(buf.get() & 0xff)
    DeltaPartition(first, width, len, BitPack.getPayload(buf, len - 1, width))
  }
}

/** Delta Encoding with fixed-length partitions (Delta-fix). */
final class DeltaFixCodec(val partitionSize: Int = 0) extends IntCodec {
  val name = "Delta-fix"

  def compress(values: Array[Long]): FixedPartitions[DeltaPartition] = FixedPartitions.encode(
    values, Partitioner.fixedSize(values, partitionSize, DeltaFixCodec.costAt))(DeltaPartition.encode)
}

object DeltaFixCodec {
  /** A partition's width is that of its largest zigzag diff, which the OR
    * of its diffs shares; the diffs are zigzagged once.
    */
  val costAt: SizeCost = new SizeCost(Codec.SimpleHeaderBytes) {
    def on(values: Array[Long]): (Int, Int) => Long = {
      val z = Array.tabulate(values.length)(k => if (k == 0) 0L else zigzag(values(k) - values(k - 1)))
      (s, e) => {
        var bits = 0L
        var k = s + 1
        while (k < e) { bits |= z(k); k += 1 }
        Codec.SimpleHeaderBytes + BitPack.payloadBytes(e - s - 1, BitPack.bitsFor(bits))
      }
    }
  }
}

/** Delta Encoding with LeCo's variable-length Partitioner in Delta mode
  * (Delta-var, §3.2.2 "Delta Encoding" worked example).
  */
final class DeltaVarCodec(val tau: Double = 0.1) extends IntCodec {
  val name = "Delta-var"

  def compress(values: Array[Long]): VariablePartitions[DeltaPartition] = VariablePartitions.encode(
    values, Partitioner.variable(values, Partitioner.DeltaMode, tau))(DeltaPartition.encode)
}
