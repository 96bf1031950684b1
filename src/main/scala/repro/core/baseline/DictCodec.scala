package repro.core.baseline

import java.nio.ByteBuffer
import repro.core._

/** Dictionary encoding with a plain fallback (Parquet's default, the `leco`
  * format's `Default` encoding): a sorted dictionary plus bit-packed codes,
  * unless more than half the values are distinct, in which case the values
  * are stored plainly at the smallest byte width {1, 2, 4, 8} covering them.
  */
object DictCodec extends IntCodec {
  val name = "Default"
  private val PlainKind = 0
  private val DictKind  = 1

  def compress(values: Array[Long]): CompressedInts = {
    val distinct = values.distinct
    if (values.isEmpty || distinct.length > values.length / 2) plain(values)
    else {
      val dict  = distinct.sorted
      val index = new java.util.HashMap[java.lang.Long, Integer]()
      dict.zipWithIndex.foreach { case (v, i) => index.put(v, i) }
      val width = math.max(1, BitPack.bitsFor(dict.length - 1L))
      val codes = new BitPack.Writer(new Array[Long](BitPack.wordsFor(values.length, width)), width)
      var i = 0
      while (i < values.length) { codes.put(index.get(values(i)).longValue()); i += 1 }
      new DictCompressed(values.length, dict, width, codes.finish())
    }
  }

  def plain(values: Array[Long]): PlainCompressed = {
    var mn = 0L; var mx = 0L
    var i = 0
    while (i < values.length) { val v = values(i); if (v < mn) mn = v; if (v > mx) mx = v; i += 1 }
    val width =
      if (mn >= Byte.MinValue && mx <= Byte.MaxValue) 1
      else if (mn >= Short.MinValue && mx <= Short.MaxValue) 2
      else if (mn >= Int.MinValue && mx <= Int.MaxValue) 4
      else 8
    new PlainCompressed(values, width)
  }

  /** Reads either layout; its first byte says which. */
  def read(buf: ByteBuffer): CompressedInts = buf.get().toInt match {
    case PlainKind =>
      val n = buf.getInt; val width = buf.get()
      require(n >= 0 && Set(1, 2, 4, 8)(width), s"bad plain header: n=$n, width $width")
      require(n.toLong * width <= buf.remaining, s"$n values of $width bytes in ${buf.remaining} bytes")
      val values = new Array[Long](n)
      var i = 0
      while (i < n) {
        values(i) = width match {
          case 1 => buf.get().toLong
          case 2 => buf.getShort.toLong
          case 4 => buf.getInt.toLong
          case 8 => buf.getLong
        }
        i += 1
      }
      new PlainCompressed(values, width)
    case DictKind =>
      val n = buf.getInt; val size = buf.getInt; val width = buf.get()
      require(n >= 0 && size > 0 && width > 0 && width <= 32,
              s"bad dictionary header: n=$n, $size entries, width $width")
      require(size.toLong * 8 <= buf.remaining, s"$size entries in ${buf.remaining} bytes")
      val dict = Array.fill(size)(buf.getLong)
      new DictCompressed(n, dict, width, BitPack.getPayload(buf, n, width))
    case kind => throw new IllegalArgumentException(s"unknown dictionary layout kind $kind")
  }

  /** Layout: `[0:u8][n:i32][width:u8]` + each value in `width` bytes. */
  final class PlainCompressed(values: Array[Long], width: Int) extends CompressedInts {
    def n: Int = values.length
    def sizeBytes: Long = 6 + values.length.toLong * width
    def get(i: Int): Long = values(i)
    def decompressAll(): Array[Long] = values

    def writeTo(buf: ByteBuffer): Unit = {
      buf.put(PlainKind.toByte).putInt(n).put(width.toByte)
      var i = 0
      while (i < values.length) {
        val v = values(i)
        width match {
          case 1 => buf.put(v.toByte)
          case 2 => buf.putShort(v.toShort)
          case 4 => buf.putInt(v.toInt)
          case 8 => buf.putLong(v)
        }
        i += 1
      }
    }
  }

  /** Layout: `[1:u8][n:i32][entries:i32][width:u8][entry:i64 × entries]` + codes. */
  final class DictCompressed(val n: Int, dict: Array[Long], width: Int, words: Array[Long]) extends CompressedInts {
    def sizeBytes: Long = 10 + dict.length * 8L + BitPack.payloadBytes(n, width)
    def get(i: Int): Long = dict(BitPack.read(words, i, width).toInt)
    def decompressAll(): Array[Long] = {
      val out = new Array[Long](n)
      val codes = new BitPack.Reader(words, width)
      var i = 0
      while (i < n) { out(i) = dict(codes.next().toInt); i += 1 }
      out
    }

    def writeTo(buf: ByteBuffer): Unit = {
      buf.put(DictKind.toByte).putInt(n).putInt(dict.length).put(width.toByte)
      dict.foreach(buf.putLong)
      BitPack.putPayload(buf, words, n, width)
    }
  }
}
