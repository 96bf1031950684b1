package repro.core.baseline

import java.nio.ByteBuffer
import scala.collection.mutable.ArrayBuilder
import repro.core._

/** Frame-of-Reference (FOR): each fixed-length frame stores its minimum plus
  * bit-packed non-negative offsets. Under LeCo this is the constant-model
  * special case (§2); it is the random-access speed floor the paper compares
  * against.
  */
final class ForCodec(val partitionSize: Int = 0) extends IntCodec {
  val name = "FOR"

  def compress(values: Array[Long]): ForCompressed = {
    val size =
      if (partitionSize > 0) partitionSize
      else Partitioner.searchFixedSize(values, ForCodec.costAt)
    new ForCompressed(values.length, size, Partitioner.encodeFixed(values, size)(ForPartition.encode))
  }
}

object ForCodec {
  def costAt(sample: Array[Long], l: Int): Long =
    Partitioner.fixedCost(sample, l) { (s, e) =>
      Codec.SimpleHeaderBytes + BitPack.payloadBytes(e - s, Regressor.fitConstant(sample, s, e).bitWidth)
    }
}

/** One FOR frame. Byte layout: `[len:i32][min:i64][width:u8]` + offsets. */
final case class ForPartition(min: Long, width: Int, len: Int, words: Array[Long]) extends EncodedPartition {
  @inline def get(j: Int): Long = min + BitPack.read(words, j, width)

  def decodeInto(out: Array[Long], outOff: Int): Unit = {
    var j = 0
    while (j < len) { out(outOff + j) = min + BitPack.read(words, j, width); j += 1 }
  }

  /** Frame skipping: a frame's values lie in [min, min + 2^w). */
  override def scanInto(pred: ScanPredicate, base: Int, out: ArrayBuilder.ofInt): Unit = {
    val hi = min + (if (width >= 63) Long.MaxValue - min else (1L << width) - 1)
    if (pred.mayMatch(min, hi)) {
      var j = 0
      while (j < len) { if (pred.test(get(j))) out += base + j; j += 1 }
    }
  }

  def sizeBytes: Long = Codec.SimpleHeaderBytes + BitPack.payloadBytes(len, width)

  def writeTo(buf: ByteBuffer): Unit = {
    buf.putInt(len).putLong(min).put(width.toByte)
    BitPack.putPayload(buf, words, len, width)
  }
}

object ForPartition {
  /** Exact frame reference (FOR must NOT round it through a Double: values
    * above 2^53 would corrupt the offsets).
    */
  def encode(values: Array[Long], from: Int, until: Int): ForPartition = {
    val (mn, mx) = Regressor.minMax(values, from, until)
    val width = BitPack.bitsFor(mx - mn)
    val words = new Array[Long](BitPack.wordsFor(until - from, width))
    var j = from
    while (j < until) { BitPack.write(words, (j - from).toLong * width, width, values(j) - mn); j += 1 }
    ForPartition(mn, width, until - from, words)
  }

  def read(buf: ByteBuffer): ForPartition = {
    val len = PartitionedInts.readLen(buf)
    val min = buf.getLong
    val width = PartitionedInts.checkWidth(buf.get() & 0xff)
    ForPartition(min, width, len, BitPack.getPayload(buf, len, width))
  }
}

final class ForCompressed(val n: Int, val partSize: Int, val parts: Array[ForPartition])
    extends FixedPartitions {
  def get(i: Int): Long = parts(i / partSize).get(i % partSize)
}

object ForCompressed {
  def read(buf: ByteBuffer): ForCompressed = {
    val (n, size, parts) = PartitionedInts.readFixed(buf)(ForPartition.read)
    new ForCompressed(n, size, parts)
  }
}
