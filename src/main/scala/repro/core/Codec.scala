package repro.core

import java.nio.ByteBuffer
import scala.collection.mutable.ArrayBuilder

/** A compressed representation of a `Long` column chunk, and its one byte
  * layout. `writeTo` writes exactly `sizeBytes` bytes, so `sizeBytes`, the
  * size used for compression ratios, is always the serialized length; the
  * codec's `read` turns them back into an equal representation. Fixed-width
  * fields are big-endian, `ByteBuffer`'s default; bit-packed payloads are
  * `BitPack`'s little-endian byte stream.
  *
  * `get` is point random access; `decompressAll` is the sequential
  * full-decode path. `scan` and `gather` are the column-chunk side of the
  * same object: the `leco` file format decodes each chunk into one of these.
  */
trait CompressedInts {
  def n: Int
  def sizeBytes: Long
  def get(i: Int): Long
  def decompressAll(): Array[Long]
  def writeTo(buf: ByteBuffer): Unit

  def toBytes: Array[Byte] = {
    val buf = ByteBuffer.allocate(Math.toIntExact(sizeBytes))
    writeTo(buf)
    if (buf.hasRemaining) throw new IllegalStateException(s"layout wrote ${buf.position()} of its $sizeBytes bytes")
    buf.array()
  }

  /** `decompressAll` under the column-chunk name. */
  final def decodeAll(): Array[Long] = decompressAll()

  /** Bytes spent on models/headers (vs. the delta payload) — the Fig 10
    * compression-ratio breakdown. 0 where the split is not meaningful.
    */
  def modelBytes: Long = 0L

  /** Random access at each of `positions` (late materialization). */
  def gather(positions: Array[Int]): Array[Long] = {
    val out = new Array[Long](positions.length)
    var i = 0
    while (i < positions.length) { out(i) = get(positions(i)); i += 1 }
    out
  }

  /** The values at ascending, distinct `positions`: `gather` below 10%
    * selectivity, otherwise one sequential decode, whichever is cheaper.
    * Selecting every position returns the decode itself, uncopied.
    */
  def materialize(positions: Array[Int]): Array[Long] =
    if (positions.length == n) decompressAll()
    else if (positions.length.toLong * 10 < n) gather(positions)
    else {
      val all = decompressAll()
      val out = new Array[Long](positions.length)
      var i = 0
      while (i < positions.length) { out(i) = all(positions(i)); i += 1 }
      out
    }

  /** Ascending positions whose value matches `pred`, with whatever pruning
    * the representation supports; by default decode everything and test.
    */
  def scan(pred: ScanPredicate): Array[Int] = {
    val vals = decompressAll()
    val out = new ArrayBuilder.ofInt
    var i = 0
    while (i < vals.length) { if (pred.test(vals(i))) out += i; i += 1 }
    out.result()
  }
}

/** A filter predicate the scanner can both evaluate per value and prune
  * with, given a conservative value interval `[lo, hi]` for a partition or
  * row group.
  */
trait ScanPredicate extends Serializable {
  def test(v: Long): Boolean
  def mayMatch(lo: Long, hi: Long): Boolean
  /** A value `x >= a` such that no value in `[a, x)` matches; `a` itself
    * when nothing better is known. Enables LeCo's in-partition computation
    * pruning (§5.1.1).
    */
  def nextMatch(a: Long): Long = a
}

/** An integer compression scheme (one of the seven evaluated in §4). */
trait IntCodec {
  def name: String
  def compress(values: Array[Long]): CompressedInts

  /** Compression ratio = compressed / uncompressed, uncompressed at
    * `rawBytesPerValue` bytes per value (the paper uses the dataset's
    * declared 32/64-bit width).
    */
  def ratio(values: Array[Long], rawBytesPerValue: Int): Double = {
    val c = compress(values)
    c.sizeBytes.toDouble / (values.length.toLong * rawBytesPerValue)
  }
}

/** Shared helpers for per-partition formats. */
object Codec {
  /** Header of a LeCo partition as `LecoPartition.writeTo` writes it: the
    * partition length (4B), the anchor (8B), the delta bit width (1B) and the
    * model word (8B) that packs the fixed-point slope, its phase and shift.
    */
  val LinearHeaderBytes: Int = 4 + 8 + 1 + 8
  /** Header of a FOR / Delta partition as `LecoPartition.writeTo` and
    * `DeltaPartition.writeTo` write it: length (4B), reference (8B), width (1B).
    */
  val SimpleHeaderBytes: Int = 4 + 8 + 1
}
