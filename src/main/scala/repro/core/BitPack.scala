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
  * repo (LeCo, FOR, Delta, Elias-Fano lower bits).
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
    val n     = until - from
    val words = new Array[Long](wordsFor(n, b))
    if (b == 0) return words
    var i = 0
    while (i < n) {
      val v = values(from + i)
      require(b == 64 || (v >= 0 && (b == 63 || v < (1L << b))), s"value $v does not fit in $b bits")
      write(words, i.toLong * b, b, v)
      i += 1
    }
    words
  }

  def pack(values: Array[Long], b: Int): Array[Long] = pack(values, 0, values.length, b)

  /** Write `b` bits of `v` at absolute bit offset `bitPos`. */
  def write(words: Array[Long], bitPos: Long, b: Int, v: Long): Unit = {
    if (b == 0) return
    val w   = (bitPos >>> 6).toInt
    val off = (bitPos & 63).toInt
    words(w) |= (v << off)
    val spill = off + b - 64
    if (spill > 0) words(w + 1) |= (v >>> (64 - off))
  }

  /** Read the `b`-bit unsigned value at logical index `i` (bit offset b*i). */
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
    var i = 0
    while (i < n) { out(i) = read(words, i, b); i += 1 }
    out
  }
}
