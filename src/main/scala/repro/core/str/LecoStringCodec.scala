package repro.core.str

import java.nio.{BufferUnderflowException, ByteBuffer}
import repro.core.{BitPack, LecoPartition, LineFit}

/** A compressed string column chunk (shape mirrors [[repro.core.CompressedInts]]). */
trait CompressedStrings {
  def length: Int
  def sizeBytes: Long
  def get(i: Int): String
  def decompressAll(): Array[String]
}

trait StringCodec {
  def name: String
  def compress(values: Array[String]): CompressedStrings
  def ratio(values: Array[String]): Double = {
    val raw = values.iterator.map(_.length.toLong).sum
    compress(values).sizeBytes.toDouble / raw
  }
}

/** LeCo's string extension (§3.4): per fixed-length partition —
  *
  *  1. extract the common prefix into the header;
  *  2. map each remaining suffix to order-preserving digits over the
  *     partition's sorted character set (exact base M, or M rounded up to a
  *     power of two so decode uses shifts instead of div/mod);
  *  3. cut the digits into limbs of `D` digits, `D` the most with
  *     `base^D <= Long.MaxValue`, so that each limb is a non-negative `Long`;
  *  4. per limb, fit the integer LeCo model on the min-padded values and pad
  *     adaptively: a suffix that ends before a limb's last digit may take any
  *     value between its min- and max-padded ones, so it takes the one
  *     nearest the middle of the deltas' packed width, which keeps the width.
  *     Each limb column is one [[LecoPartition]];
  *  5. bit-pack the per-value suffix lengths.
  */
final class LecoStringCodec(val partitionSize: Int = 256, val powerOfTwoBase: Boolean = false)
    extends StringCodec {
  val name: String = if (powerOfTwoBase) "LeCo-str-pow2" else "LeCo-str"

  def compress(values: Array[String]): LecoStringCompressed = {
    val n = values.length
    val parts = scala.collection.mutable.ArrayBuffer[StringPartition]()
    var s = 0
    while (s < n) {
      val e = math.min(s + partitionSize, n)
      parts += StringPartition.encode(values, s, e, powerOfTwoBase)
      s = e
    }
    new LecoStringCompressed(n, partitionSize, powerOfTwoBase, parts.toArray)
  }
}

/** One encoded string partition of `len` values. `alphabet` lists the
  * partition's characters in ascending order (rank = digit value); `base`
  * is the radix, `alphabet.length` or the next power of two. Suffix `j`
  * is the first `lens(j)` of `maxLen` digits; limb `k` holds digits
  * `k·D until (k + 1)·D`, so `get` decodes only the limbs its length covers.
  * Below base 2 a digit carries nothing, the lengths alone hold the suffixes
  * and there are no limbs.
  *
  * Byte layout: the prefix and the alphabet, each as its character count
  * and then its characters, every count and character an unsigned LEB128
  * varint (one byte in ASCII); `[maxLen:varint]`; the lengths as a
  * `BitPack` payload at width `bitsFor(maxLen)`; each limb's
  * [[LecoPartition]] bytes.
  */
final class StringPartition(val prefix: String, alphabet: String, pow2: Boolean, maxLen: Int,
                            val len: Int, lens: Array[Long], val limbs: Array[LecoPartition]) {
  import StringPartition._

  val base: Int = baseOf(alphabet.length, pow2)
  private val letters = alphabet.toCharArray
  private val lenWidth = BitPack.bitsFor(maxLen)
  private val digits = limbDigits(base)
  /** `base^i` for `i <= digits`. */
  private val pows = Array.iterate(1L, digits + 1)(_ * base)
  private val pow2Shift = if (Integer.bitCount(base) == 1) Integer.numberOfTrailingZeros(base) else -1

  def get(j: Int): String = {
    val sLen = BitPack.read(lens, j, lenWidth).toInt
    val p = prefix.length
    val out = new Array[Char](p + sLen)
    prefix.getChars(0, p, out, 0)
    var at = 0 // digits written
    if (limbs.isEmpty) while (at < sLen) { out(p + at) = letters(0); at += 1 }
    var k = 0
    while (at < sLen) {
      val inLimb = math.min(digits, maxLen - at)
      val need = math.min(inLimb, sLen - at)
      var v = limbs(k).get(j)
      var d = p + at + need // digits are peeled least significant first
      if (pow2Shift >= 0) {
        v >>>= pow2Shift * (inLimb - need)
        while (d > p + at) { d -= 1; out(d) = letters((v & (base - 1)).toInt); v >>>= pow2Shift }
      } else {
        v /= pows(inLimb - need)
        while (d > p + at) { d -= 1; out(d) = letters((v % base).toInt); v /= base }
      }
      at += need
      k += 1
    }
    new String(out)
  }

  def sizeBytes: Long =
    charsBytes(prefix) + charsBytes(alphabet) + varBytes(maxLen) + BitPack.payloadBytes(len, lenWidth) +
      limbs.iterator.map(_.sizeBytes).sum

  def writeTo(buf: ByteBuffer): Unit = {
    putChars(buf, prefix)
    putChars(buf, alphabet)
    putVar(buf, maxLen)
    BitPack.putPayload(buf, lens, len, lenWidth)
    limbs.foreach(_.writeTo(buf))
  }
}

object StringPartition {
  private def baseOf(letters: Int, pow2: Boolean): Int =
    if (pow2 && letters > 1) Integer.highestOneBit(letters - 1) << 1 else letters

  /** `D`, the most digits with `base^D <= Long.MaxValue`; 0 below base 2. */
  private def limbDigits(base: Int): Int = {
    var d = 0
    var p = 1L
    if (base >= 2) while (p <= Long.MaxValue / base) { p *= base; d += 1 }
    d
  }

  private def limbCount(base: Int, maxLen: Int): Int = {
    val d = limbDigits(base)
    if (d == 0) 0 else (maxLen + d - 1) / d
  }

  def encode(values: Array[String], from: Int, until: Int, pow2: Boolean): StringPartition = {
    val n = until - from
    // 1. common prefix
    var prefix = values(from)
    var i = from + 1
    while (i < until && prefix.nonEmpty) {
      val v = values(i)
      var k = 0
      val m = math.min(prefix.length, v.length)
      while (k < m && prefix.charAt(k) == v.charAt(k)) k += 1
      prefix = prefix.substring(0, k)
      i += 1
    }
    val suffixes = Array.tabulate(n)(j => values(from + j).substring(prefix.length))
    val maxLen   = suffixes.iterator.map(_.length).max
    // 2. character set
    val letters  = suffixes.iterator.flatten.toSet.toArray.sorted
    val base     = baseOf(letters.length, pow2)
    // 3. limbs, each the min- and max-padded values of its digits
    val digits   = limbDigits(base)
    val line = new LineFit(keepDeltas = true)
    val limbs = Array.tabulate(limbCount(base, maxLen)) { k =>
      val first = k * digits
      val end   = math.min(maxLen, first + digits)
      val vMin = new Array[Long](n)
      val vMax = new Array[Long](n)
      var j = 0
      while (j < n) {
        val s = suffixes(j)
        var lo = 0L; var hi = 0L
        var d = first
        while (d < end) {
          if (d < s.length) { val r = java.util.Arrays.binarySearch(letters, s.charAt(d)); lo = lo * base + r; hi = hi * base + r }
          else { lo *= base; hi = hi * base + base - 1 }
          d += 1
        }
        vMin(j) = lo; vMax(j) = hi
        j += 1
      }
      // 4. the slope of the min-padded values; each value is clamped to the middle of their packed width
      val fit = line.fit(vMin, 0, n).toFit
      val mid = (1L << fit.bitWidth) >>> 1
      val chosen = Array.tabulate(n)(j => math.max(vMin(j), math.min(vMax(j), fit.predict(j) + mid)))
      line.window(chosen, 0, n, fit.slope, fit.shift).toPartition(n)
    }
    // 5. lengths
    val lenWidth = BitPack.bitsFor(maxLen)
    val lens = new BitPack.Writer(new Array[Long](BitPack.wordsFor(n, lenWidth)), lenWidth)
    suffixes.foreach(s => lens.put(s.length))
    new StringPartition(prefix, new String(letters), pow2, maxLen, n, lens.finish(), limbs)
  }

  /** Reads a partition of `len` values as `writeTo` writes it. */
  def read(buf: ByteBuffer, len: Int, pow2: Boolean): StringPartition = {
    val prefix = getChars(buf)
    val alphabet = getChars(buf)
    for (k <- 1 until alphabet.length)
      require(alphabet(k - 1) < alphabet(k), s"alphabet out of order: '${alphabet(k - 1)}' before '${alphabet(k)}'")
    val maxLen = getVar(buf)
    require(maxLen == 0 || alphabet.nonEmpty, s"suffixes of up to $maxLen characters over an empty alphabet")
    val width = BitPack.bitsFor(maxLen)
    val lens = BitPack.getPayload(buf, len, width)
    val longest = BitPack.unpackAll(lens, len, width).max
    require(longest == maxLen, s"the longest suffix holds $longest characters, the header says $maxLen")
    val limbs = Array.tabulate(limbCount(baseOf(alphabet.length, pow2), maxLen)) { k =>
      val limb = LecoPartition.read(buf)
      require(limb.len == len, s"limb $k holds ${limb.len} values, its partition $len")
      limb
    }
    new StringPartition(prefix, alphabet, pow2, maxLen, len, lens, limbs)
  }

  /** Bytes of `v` as an unsigned LEB128 varint. */
  private def varBytes(v: Int): Int = (31 - Integer.numberOfLeadingZeros(v | 1)) / 7 + 1

  private def putVar(buf: ByteBuffer, v: Int): Unit = {
    var x = v
    while ((x & ~0x7f) != 0) { buf.put(((x & 0x7f) | 0x80).toByte); x >>>= 7 }
    buf.put(x.toByte)
  }

  private def getVar(buf: ByteBuffer): Int = {
    var x = 0L
    var shift = 0
    var b = 0
    while ({ b = buf.get(); x |= (b & 0x7fL) << shift; shift += 7; b < 0 })
      require(shift < 35, "a varint of more than 5 bytes")
    require(x <= Int.MaxValue, s"varint $x is out of range")
    x.toInt
  }

  private def charsBytes(s: String): Long = varBytes(s.length) + s.iterator.map(c => varBytes(c)).sum

  private def putChars(buf: ByteBuffer, s: String): Unit = {
    putVar(buf, s.length)
    s.foreach(c => putVar(buf, c))
  }

  private def getChars(buf: ByteBuffer): String = {
    val count = getVar(buf)
    require(count <= buf.remaining, s"$count characters cannot fit in ${buf.remaining} bytes")
    val cs = Array.fill(count) {
      val c = getVar(buf)
      require(c <= Char.MaxValue, s"character code $c is out of range")
      c.toChar
    }
    new String(cs)
  }
}

/** A LeCo-str column and its byte layout: `[n:i32][partSize:i32][pow2:u8]`,
  * then each partition's bytes. `n` and `partSize` imply every partition's
  * length, so no partition stores it. `writeTo` writes exactly `sizeBytes`
  * bytes.
  */
final class LecoStringCompressed(val n: Int, val partSize: Int, val pow2: Boolean,
                                 val parts: Array[StringPartition]) extends CompressedStrings {
  def length: Int = n
  def sizeBytes: Long = LecoStringCompressed.PrefixBytes + parts.iterator.map(_.sizeBytes).sum
  def get(i: Int): String = parts(i / partSize).get(i % partSize)
  def decompressAll(): Array[String] = Array.tabulate(n)(get)

  def writeTo(buf: ByteBuffer): Unit = {
    buf.putInt(n).putInt(partSize).put((if (pow2) 1 else 0).toByte)
    parts.foreach(_.writeTo(buf))
  }

  def toBytes: Array[Byte] = {
    val buf = ByteBuffer.allocate(Math.toIntExact(sizeBytes))
    writeTo(buf)
    if (buf.hasRemaining) throw new IllegalStateException(s"layout wrote ${buf.position()} of its $sizeBytes bytes")
    buf.array()
  }
}

object LecoStringCompressed {
  val PrefixBytes = 9

  /** Reads the bytes `writeTo` writes; truncated or inconsistent bytes fail
    * with an `IllegalArgumentException` that names the fault.
    */
  def read(buf: ByteBuffer): LecoStringCompressed =
    try {
      val n = buf.getInt; val size = buf.getInt; val flag = buf.get()
      require(n >= 0 && size > 0, s"bad layout prefix: n=$n, partition size $size")
      require(flag == 0 || flag == 1, s"base flag $flag is neither 0 nor 1")
      val count = ((n.toLong + size - 1) / size).toInt
      require(count <= buf.remaining, s"$count partitions cannot fit in ${buf.remaining} bytes")
      val parts = Array.tabulate(count)(p => StringPartition.read(buf, math.min(size, n - p * size), flag == 1))
      new LecoStringCompressed(n, size, flag == 1, parts)
    } catch {
      case _: BufferUnderflowException => throw new IllegalArgumentException("LeCo-str bytes are truncated")
    }
}
