package repro.core

import java.nio.ByteBuffer
import scala.collection.mutable.ArrayBuilder
import scala.reflect.ClassTag

/** One encoded partition of FOR, Delta or LeCo. Its bytes in the layout
  * start with its length.
  */
trait EncodedPartition {
  def len: Int
  def sizeBytes: Long
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

/** A partitioned representation and its byte layout: `[n:i32][k:i32]`,
  * then each partition's own bytes. `k` is the partition size of a
  * fixed-length layout, or the partition count of a variable-length one.
  */
trait PartitionedInts extends ByteLayout {
  def parts: Array[_ <: EncodedPartition]
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

/** Fixed-length partitions: partition `p` starts at `p * partSize`. */
trait FixedPartitions extends PartitionedInts {
  def partSize: Int
  def start(p: Int): Int = p * partSize
  protected def k: Int = partSize
}

/** Variable-length partitions, located by a search over their starts. */
trait VariablePartitions extends PartitionedInts {
  def starts: Array[Int]
  def start(p: Int): Int = starts(p)
  protected def k: Int = parts.length

  /** Lower-bound search: largest k with starts(k) <= i. */
  @inline final def partitionOf(i: Int): Int = {
    var lo = 0; var hi = starts.length - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (starts(mid) <= i) lo = mid else hi = mid - 1
    }
    lo
  }
}

object PartitionedInts {
  val PrefixBytes = 8

  /** Reads a fixed-length layout as `(n, partSize, parts)`. */
  def readFixed[P <: EncodedPartition: ClassTag](buf: ByteBuffer)(read: ByteBuffer => P): (Int, Int, Array[P]) = {
    val n = buf.getInt; val size = buf.getInt
    require(n >= 0 && size > 0, s"bad layout prefix: n=$n, partition size $size")
    val parts = readParts(buf, ((n.toLong + size - 1) / size).toInt, read)
    var p = 0
    while (p < parts.length) {
      val want = math.min(size.toLong, n - p.toLong * size)
      require(parts(p).len == want, s"partition $p holds ${parts(p).len} values, expected $want")
      p += 1
    }
    (n, size, parts)
  }

  /** Reads a variable-length layout as `(n, starts, parts)`. */
  def readVariable[P <: EncodedPartition: ClassTag](buf: ByteBuffer)(read: ByteBuffer => P)
      : (Int, Array[Int], Array[P]) = {
    val n = buf.getInt; val count = buf.getInt
    require(n >= 0 && count >= 0, s"bad layout prefix: n=$n, $count partitions")
    val parts  = readParts(buf, count, read)
    val starts = new Array[Int](count)
    var s = 0L
    var p = 0
    while (p < count) { starts(p) = s.toInt; s += parts(p).len; p += 1 }
    require(s == n, s"partitions hold $s values, expected $n")
    (n, starts, parts)
  }

  private def readParts[P: ClassTag](buf: ByteBuffer, count: Int, read: ByteBuffer => P): Array[P] = {
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
