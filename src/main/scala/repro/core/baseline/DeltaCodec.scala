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
    var v = first
    var k = 0
    while (k < j) { v += unzig(BitPack.read(words, k, width)); k += 1 }
    v
  }

  def decodeInto(out: Array[Long], outOff: Int): Unit = {
    var v = first
    out(outOff) = v
    var k = 0
    while (k < len - 1) { v += unzig(BitPack.read(words, k, width)); out(outOff + k + 1) = v; k += 1 }
  }

  def headerBytes: Int = Codec.SimpleHeaderBytes
  def sizeBytes: Long = headerBytes + BitPack.payloadBytes(len - 1, width)

  def writeTo(buf: ByteBuffer): Unit = {
    buf.putInt(len).putLong(first).put(width.toByte)
    BitPack.putPayload(buf, words, len - 1, width)
  }
}

object DeltaPartition {
  @inline def zigzag(d: Long): Long = (d << 1) ^ (d >> 63)

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
    val words = new Array[Long](BitPack.wordsFor(n - 1, b))
    k = from + 1
    while (k < until) {
      BitPack.write(words, (k - from - 1).toLong * b, b, zigzag(values(k) - values(k - 1)))
      k += 1
    }
    DeltaPartition(values(from), b, n, words)
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

  def compress(values: Array[Long]): DeltaFixCompressed = {
    val size =
      if (partitionSize > 0) partitionSize
      else Partitioner.searchFixedSize(values, DeltaFixCodec.costAt)
    new DeltaFixCompressed(values.length, size, Partitioner.encodeFixed(values, size)(DeltaPartition.encode))
  }
}

object DeltaFixCodec {
  def costAt(sample: Array[Long], l: Int): Long =
    Partitioner.fixedCost(sample, l)(DeltaPartition.encode(sample, _, _).sizeBytes)
}

final class DeltaFixCompressed(val n: Int, val partSize: Int, val parts: Array[DeltaPartition])
    extends FixedPartitions {
  def get(i: Int): Long = parts(i / partSize).get(i % partSize)
}

object DeltaFixCompressed {
  def read(buf: ByteBuffer): DeltaFixCompressed = {
    val (n, size, parts) = PartitionedInts.readFixed(buf)(DeltaPartition.read)
    new DeltaFixCompressed(n, size, parts)
  }
}

/** Delta Encoding with LeCo's variable-length Partitioner in Delta mode
  * (Delta-var, §3.2.2 "Delta Encoding" worked example).
  */
final class DeltaVarCodec(val tau: Double = 0.1) extends IntCodec {
  val name = "Delta-var"

  def compress(values: Array[Long]): DeltaVarCompressed = {
    val ps = Partitioner.variable(values, Partitioner.DeltaMode, tau)
    new DeltaVarCompressed(values.length, ps.starts,
                           Array.tabulate(ps.count)(k => DeltaPartition.encode(values, ps.starts(k), ps.end(k))))
  }
}

final class DeltaVarCompressed(val n: Int, val starts: Array[Int], val parts: Array[DeltaPartition])
    extends VariablePartitions {
  def get(i: Int): Long = { val k = partitionOf(i); parts(k).get(i - starts(k)) }
}

object DeltaVarCompressed {
  def read(buf: ByteBuffer): DeltaVarCompressed = {
    val (n, starts, parts) = PartitionedInts.readVariable(buf)(DeltaPartition.read)
    new DeltaVarCompressed(n, starts, parts)
  }
}
