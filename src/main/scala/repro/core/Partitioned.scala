package repro.core

import java.nio.ByteBuffer
import scala.collection.mutable.ArrayBuilder
import scala.reflect.ClassTag

/** One encoded partition of FOR, Delta, LeCo or Elias-Fano. Its bytes in
  * the layout start with its length; `headerBytes` of them precede the
  * packed payload.
  */
trait EncodedPartition {
  def len: Int
  def headerBytes: Int
  def sizeBytes: Long
  /** The value at in-partition position `j`. */
  def get(j: Int): Long
  def writeTo(buf: ByteBuffer): Unit
  def decodeInto(out: Array[Long], outOff: Int): Unit

  /** Appends `base + j` for every position `j` whose value matches `pred`;
    * by default decode the partition and test each value.
    */
  def scanInto(pred: ScanPredicate, base: Int, out: ArrayBuilder.ofInt): Unit = {
    val vals = new Array[Long](len)
    decodeInto(vals, 0)
    var j = 0
    while (j < len) { if (pred.test(vals(j))) out += base + j; j += 1 }
  }
}

/** Encodes partition `values(from until until)`. A trait of its own, not a
  * `Function3`, so that the bounds pass unboxed.
  */
trait PartitionEncoder[+P] {
  def apply(values: Array[Long], from: Int, until: Int): P
}

/** A partitioned representation and its byte layout: `[n:i32][k:i32]`,
  * then each partition's own bytes. `k` is the partition size of a
  * fixed-length layout, or the partition count of a variable-length one.
  */
sealed abstract class PartitionedInts[P <: EncodedPartition] extends CompressedInts {
  def parts: Array[P]
  /** First position of partition `p`. */
  def start(p: Int): Int
  /** The layout's `k`. */
  protected def k: Int

  def sizeBytes: Long = {
    var total = PartitionedInts.PrefixBytes.toLong
    var p = 0
    while (p < parts.length) { total += parts(p).sizeBytes; p += 1 }
    total
  }

  /** Where each partition's bytes start in `toBytes`. */
  def partitionOffsets: Array[Long] = parts.scanLeft(PartitionedInts.PrefixBytes.toLong)(_ + _.sizeBytes).init

  /** The partitions' headers: the model side of the Fig 10 breakdown. */
  override def modelBytes: Long = parts.iterator.map(_.headerBytes.toLong).sum

  def writeTo(buf: ByteBuffer): Unit = {
    buf.putInt(n).putInt(k)
    var p = 0
    while (p < parts.length) { parts(p).writeTo(buf); p += 1 }
  }

  def decompressAll(): Array[Long] = {
    val out = new Array[Long](n)
    var p = 0
    while (p < parts.length) { parts(p).decodeInto(out, start(p)); p += 1 }
    out
  }

  override def scan(pred: ScanPredicate): Array[Int] = {
    val out = new ArrayBuilder.ofInt
    var p = 0
    while (p < parts.length) { parts(p).scanInto(pred, start(p), out); p += 1 }
    out.result()
  }
}

/** Fixed-length partitions (§3.2.1): partition `p` starts at `p * partSize`,
  * so `get` locates it by division.
  */
final class FixedPartitions[P <: EncodedPartition](val n: Int, val partSize: Int, val parts: Array[P])
    extends PartitionedInts[P] {
  def start(p: Int): Int = p * partSize
  protected def k: Int = partSize
  def get(i: Int): Long = parts(i / partSize).get(i % partSize)
}

object FixedPartitions {
  /** Encodes consecutive `size`-value partitions of `values`. */
  def encode[P <: EncodedPartition: ClassTag](values: Array[Long], size: Int)
                                             (encode: PartitionEncoder[P]): FixedPartitions[P] =
    new FixedPartitions(values.length, size, Partitioner.encodeFixed(values, size)(encode))

  def read[P <: EncodedPartition: ClassTag](buf: ByteBuffer)(read: ByteBuffer => P): FixedPartitions[P] = {
    val n = buf.getInt; val size = buf.getInt
    require(n >= 0 && size > 0, s"bad layout prefix: n=$n, partition size $size")
    val parts = PartitionedInts.readParts(buf, ((n.toLong + size - 1) / size).toInt, read)
    var p = 0
    while (p < parts.length) {
      val want = math.min(size.toLong, n - p.toLong * size)
      require(parts(p).len == want, s"partition $p holds ${parts(p).len} values, expected $want")
      p += 1
    }
    new FixedPartitions(n, size, parts)
  }
}

/** Variable-length partitions (§3.2.2), located by a search over their starts. */
final class VariablePartitions[P <: EncodedPartition](val n: Int, val starts: Array[Int], val parts: Array[P])
    extends PartitionedInts[P] {
  def start(p: Int): Int = starts(p)
  protected def k: Int = parts.length
  def get(i: Int): Long = { val p = partitionOf(i); parts(p).get(i - starts(p)) }

  /** Lower-bound search: largest k with starts(k) <= i. */
  @inline def partitionOf(i: Int): Int = {
    var lo = 0; var hi = starts.length - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (starts(mid) <= i) lo = mid else hi = mid - 1
    }
    lo
  }
}

object VariablePartitions {
  /** Encodes the partitions `ps` of `values`. */
  def encode[P <: EncodedPartition: ClassTag](values: Array[Long], ps: Partitions)
                                             (encode: PartitionEncoder[P]): VariablePartitions[P] = {
    val parts = new Array[P](ps.count)
    var k = 0
    while (k < parts.length) { parts(k) = encode(values, ps.starts(k), ps.end(k)); k += 1 }
    new VariablePartitions(values.length, ps.starts, parts)
  }

  def read[P <: EncodedPartition: ClassTag](buf: ByteBuffer)(read: ByteBuffer => P): VariablePartitions[P] = {
    val n = buf.getInt; val count = buf.getInt
    require(n >= 0 && count >= 0, s"bad layout prefix: n=$n, $count partitions")
    val parts  = PartitionedInts.readParts(buf, count, read)
    val starts = new Array[Int](count)
    var s = 0L
    var p = 0
    while (p < count) { starts(p) = s.toInt; s += parts(p).len; p += 1 }
    require(s == n, s"partitions hold $s values, expected $n")
    new VariablePartitions(n, starts, parts)
  }
}

object PartitionedInts {
  val PrefixBytes = 8

  private[core] def readParts[P: ClassTag](buf: ByteBuffer, count: Int, read: ByteBuffer => P): Array[P] = {
    require(count <= buf.remaining, s"$count partitions cannot fit in ${buf.remaining} bytes")
    Array.fill(count)(read(buf))
  }

  /** Reads a partition's length field; every partition holds a value. */
  def readLen(buf: ByteBuffer): Int = {
    val len = buf.getInt
    require(len > 0, s"partition length $len")
    len
  }

  def checkWidth(width: Int): Int = {
    require(width <= 64, s"bit width $width")
    width
  }
}
