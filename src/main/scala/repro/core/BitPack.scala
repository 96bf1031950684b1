package repro.core

import java.nio.{BufferUnderflowException, ByteBuffer, ByteOrder}

/** Fixed-width bit packing over a `Array[Long]` word buffer.
  *
  * Values are stored as unsigned integers of a fixed width `b` in `[0, 64]`
  * bits, little-endian within each 64-bit word, value `i` occupying bits
  * `[b*i, b*(i+1))` of the logical bit stream. Width 0 is legal and stores
  * nothing (all values decode to 0) — this is the RLE-like degenerate case
  * where a partition's model is exact.
  *
  * This is the physical layer under every fixed-width delta array in the
  * repo (LeCo, FOR, Delta, Elias-Fano lower bits) and the dictionary codes.
  */
object BitPack {

  /** Bits required to represent `x` read as an unsigned integer: 0 for 0,
    * 64 for a negative `x`.
    */
  def bitsFor(x: Long): Int = 64 - java.lang.Long.numberOfLeadingZeros(x)

  /** Number of 64-bit words needed to hold `n` values of width `b`. */
  def wordsFor(n: Int, b: Int): Int = {
    val bits = n.toLong * b
    ((bits + 63) / 64).toInt
  }

  /** Pack `values(from until until)` at width `b` into a fresh word buffer.
    * Every value must fit in `b` bits.
    */
  def pack(values: Array[Long], from: Int, until: Int, b: Int): Array[Long] = {
    require(b >= 0 && b <= 64, s"width $b out of range")
    val out = new Writer(new Array[Long](wordsFor(until - from, b)), b)
    var i = from
    while (i < until) {
      val v = values(i)
      require(b == 64 || (v >= 0 && (b == 63 || v < (1L << b))), s"value $v does not fit in $b bits")
      out.put(v)
      i += 1
    }
    out.finish()
  }

  /** Read the `b`-bit unsigned value at logical index `i` (bit offset b*i):
    * random access. A walk from index 0 on is a [[Reader]]'s.
    */
  def read(words: Array[Long], i: Int, b: Int): Long = readAt(words, i.toLong * b, b)

  /** Read `b` bits at absolute bit offset `bitPos` as an unsigned value. */
  def readAt(words: Array[Long], bitPos: Long, b: Int): Long = {
    if (b == 0) return 0L
    val w    = (bitPos >>> 6).toInt
    val off  = (bitPos & 63).toInt
    val lo   = words(w) >>> off
    val got  = 64 - off
    val v    = if (got >= b) lo else lo | (words(w + 1) << got)
    if (b == 64) v else v & ((1L << b) - 1)
  }

  /** Bytes of `n` values of width `b` in a byte layout: the bit stream
    * rounded up to a whole byte.
    */
  def payloadBytes(n: Int, b: Int): Long = (n.toLong * b + 7) / 8

  /** Write the `payloadBytes(n, b)` bytes of `words`, little-endian. */
  def putPayload(buf: ByteBuffer, words: Array[Long], n: Int, b: Int): Unit = {
    val bytes = payloadBytes(n, b).toInt
    val full  = bytes >>> 3
    buf.slice().order(ByteOrder.LITTLE_ENDIAN).asLongBuffer().put(words, 0, full)
    buf.position(buf.position() + full * 8)
    var k = 0
    while (k < (bytes & 7)) { buf.put((words(full) >>> (8 * k)).toByte); k += 1 }
  }

  /** Read `n` values of width `b` written by [[putPayload]] into a word buffer. */
  def getPayload(buf: ByteBuffer, n: Int, b: Int): Array[Long] = {
    val bytes = payloadBytes(n, b)
    if (bytes > buf.remaining) throw new BufferUnderflowException
    val words = new Array[Long](wordsFor(n, b))
    val full  = (bytes >>> 3).toInt
    buf.slice().order(ByteOrder.LITTLE_ENDIAN).asLongBuffer().get(words, 0, full)
    buf.position(buf.position() + full * 8)
    var k = 0
    while (k < (bytes & 7)) { words(full) |= (buf.get() & 0xffL) << (8 * k); k += 1 }
    words
  }

  /** Unpack `n` values of width `b` starting at logical index 0. */
  def unpackAll(words: Array[Long], n: Int, b: Int): Array[Long] = {
    val out = new Array[Long](n)
    val in = new Reader(words, b)
    var i = 0
    while (i < n) { out(i) = in.next(); i += 1 }
    out
  }

  /** The values of width `b` in `words`, in order from index 0: every
    * sequential decode's reader. It carries the bit position, so a value
    * costs an add where [[read]] multiplies, and the width's mask, so the
    * width is checked once, not per value. A value reads the next word only
    * when it spills into it: no word past the one that ends the last value
    * read is touched.
    */
  final class Reader(words: Array[Long], b: Int) {
    if (b < 0 || b > 64) throw new IllegalArgumentException(s"width $b out of range")
    private[this] val ws   = if (b == 0) ZeroWord else words // width 0 has no words; reads 0 forever
    private[this] val mask = if (b == 64) -1L else (1L << b) - 1
    private[this] var pos  = 0L // bit offset of the next value

    def next(): Long = {
      val w = (pos >>> 6).toInt; val off = (pos & 63).toInt
      pos += b
      val lo = ws(w) >>> off
      (if (off + b > 64) lo | (ws(w + 1) << (64 - off)) else lo) & mask
    }
  }

  /** Packs values of width `b` into `words` from index 0 on: every
    * sequential encode's writer, the mirror of [[Reader]]. It holds the word
    * being filled, so each word is stored once, when it is full, and
    * [[finish]] stores the last, partial one. Unchecked: each value must fit
    * in `b` bits, read unsigned; [[pack]] is the checked loop over it.
    */
  final class Writer(words: Array[Long], b: Int) {
    private[this] var cur  = 0L // the word being filled, `used` bits of it so far
    private[this] var used = 0
    private[this] var w    = 0 // its index

    def put(v: Long): Unit = {
      cur |= v << used
      used += b
      if (used >= 64) {
        words(w) = cur
        w += 1
        used -= 64
        cur = if (used == 0) 0L else v >>> (b - used) // the bits that did not fit
      }
    }

    /** Stores the partial last word, if any, and returns `words`. */
    def finish(): Array[Long] = {
      if (used > 0) words(w) = cur
      words
    }
  }

  private val ZeroWord = Array(0L)
}
