package repro.core

import java.nio.{ByteBuffer, ByteOrder}
import scala.collection.mutable.ArrayBuilder

/** One encoded partition of LeCo or FOR: a model, `predict(j) = anchor +
  * ((slope·j + phase) >> shift)`, plus fixed-width non-negative deltas (§3).
  * `slope·2^-shift` is the least-squares θ1 in fixed point and `phase` the
  * fraction of θ0 (see [[Fit]]). FOR is the constant model, slope 0, whose
  * anchor is the frame minimum (§2).
  *
  * The model is integer arithmetic, so encode and decode agree on every bit.
  * The anchor is an exact `Long` and the sums wrap, so every partition of
  * every input is exact and fits a width of 64. `|slope|·(len − 1) <= 2^62`
  * and `phase < 2^shift <= 2^62`, so `slope·j + phase` never leaves a
  * `Long`: the prediction is monotone in `j`, and sequential decode is §3.3's
  * accumulation, `acc += slope`, with no correction list.
  *
  * Byte layout: `[len:i32][anchor:i64][width:u8]`, the high bit of the width
  * byte set when `[model:i64]` follows, which is exactly when the slope is
  * not 0, then the packed deltas. A flat partition is therefore a FOR frame,
  * byte for byte, whichever encoder wrote it. The model word holds the slope
  * in its top 50 bits (signed), the phase in the next 8 bits, in steps of
  * `2^max(0, shift − 8)`, and the shift in its low 6 bits.
  */
final case class LecoPartition(anchor: Long, slope: Long, shift: Int, phase: Long,
                               width: Int, len: Int, words: Array[Long]) extends EncodedPartition {
  require(shift >= 0 && shift <= 62 && Math.abs(slope) <= LineFit.slopeLimit(len) && (slope != 0 || shift == 0) &&
            phase >= 0 && phase < (1L << shift) && (phase & (LecoPartition.phaseStep(shift) - 1)) == 0,
          s"model slope $slope, shift $shift, phase $phase is outside the fixed-point limits of $len values")

  /** The prediction's offset from the anchor at `j`; monotone in `j`, 0 at `j = 0`. */
  @inline def offsetAt(j: Int): Long = (slope * j + phase) >> shift
  @inline def predict(j: Int): Long = anchor + offsetAt(j)
  @inline def get(j: Int): Long = predict(j) + BitPack.read(words, j, width)

  /** Always empty; kept only for perfbench's `leco.corrections` count. */
  def corrections: Array[Int] = Array.emptyIntArray

  /** Sequential decode into `out(outOff ...)`: §3.3's `acc += slope`; a
    * constant model (FOR) adds the anchor alone.
    */
  def decodeInto(out: Array[Long], outOff: Int): Unit = {
    val deltas = new BitPack.Reader(words, width)
    val end = outOff + len
    val m = slope; val s = shift; val a = anchor
    var j = outOff
    if (m == 0) while (j < end) { out(j) = a + deltas.next(); j += 1 }
    else {
      var acc = phase
      while (j < end) { out(j) = a + (acc >> s) + deltas.next(); acc += m; j += 1 }
    }
  }

  /** Partition-bound skipping plus LeCo's in-partition computation pruning
    * (§5.1.1). The value at `j` lies in `[predict(j), predict(j) + span]`, so
    * with a rising slope the scanner jumps over position ranges whose values
    * provably miss the predicate, to the first position whose prediction
    * reaches the target: exact integer arithmetic. Where those bounds would
    * wrap past the signed range, every value is decoded and tested.
    */
  override def scanInto(pred: ScanPredicate, base: Int, out: ArrayBuilder.ofInt): Unit = {
    // the largest delta, unsigned, capped so that `anchor + span` stays a Long
    val maxDelta = if (width == 64) -1L else (1L << width) - 1
    val span = if (java.lang.Long.compareUnsigned(maxDelta, Long.MaxValue - anchor) > 0) Long.MaxValue - anchor
               else maxDelta
    val qEnd = offsetAt(len - 1)
    val lo = anchor + math.min(qEnd, 0L)
    val hi = anchor + span + math.max(qEnd, 0L)
    if (lo > anchor || hi < anchor + span) super.scanInto(pred, base, out)
    else if (pred.mayMatch(lo, hi)) {
      val jumpable = slope > 0
      var j = 0
      while (j < len) {
        val low = predict(j)
        val next = if (jumpable) pred.nextMatch(low) else low
        if (java.lang.Long.compareUnsigned(next - low, span) > 0) {
          // positions j..k-1 predict below `next - span`, so none reaches `next`
          val t = next - span - anchor // what offsetAt(k) must reach; wrapped negative, no k does
          j = if (t < 0 || t > qEnd) len
              else { // the least k with slope·k + phase >= t·2^s, which is at most slope·(len−1) + phase
                val x = (t << shift) - phase
                math.max(j + 1, ((x + slope - 1) / slope).toInt)
              }
        } else {
          // value = low + delta: reuse the bound instead of a second predict
          if (pred.test(low + BitPack.read(words, j, width))) out += base + j
          j += 1
        }
      }
    }
  }

  def headerBytes: Int = LecoPartition.headerBytes(slope)
  def payloadBytes: Long = BitPack.payloadBytes(len, width)
  def sizeBytes: Long = headerBytes + payloadBytes

  def writeTo(buf: ByteBuffer): Unit = {
    buf.putInt(len).putLong(anchor)
    if (slope != 0) buf.put((width | LecoPartition.SlopeFlag).toByte).putLong(LecoPartition.modelWord(slope, shift, phase))
    else buf.put(width.toByte)
    BitPack.putPayload(buf, words, len, width)
  }
}

object LecoPartition {
  private val SlopeFlag = 0x80
  private val PhaseBits = 8

  /** The phase's step at `shift`: the layout keeps its top [[PhaseBits]] bits. */
  def phaseStep(shift: Int): Long = 1L << math.max(0, shift - PhaseBits)

  private def modelWord(slope: Long, shift: Int, phase: Long): Long =
    (slope << 14) | ((phase >>> math.max(0, shift - PhaseBits)) << 6) | shift

  /** A partition's header: the model word follows iff the slope is not 0. */
  def headerBytes(slope: Long): Int = if (slope != 0) Codec.LinearHeaderBytes else Codec.SimpleHeaderBytes

  /** The slope, shift and phase of a model word, as [[modelWord]] packs them. */
  @inline private def slopeOf(word: Long): Long = word >> 14
  @inline private def shiftOf(word: Long): Int = (word & 63).toInt
  @inline private def phaseOf(word: Long): Long = ((word >>> 6) & 0xff) * phaseStep(shiftOf(word))

  /** An encoder of LeCo partitions (`fit`: the least-squares slope, which
    * may still come out 0) or FOR frames (the constant model) of
    * `values(from until until)`, for one thread: its one [[LineFit]] and
    * delta buffer serve every partition it encodes.
    */
  def encoder(fit: Boolean): PartitionEncoder[LecoPartition] = {
    val line = new LineFit(keepDeltas = true)
    if (fit) (values, from, until) => line.fit(values, from, until).toPartition(until - from)
    else (values, from, until) => line.window(values, from, until, 0L, 0).toPartition(until - from)
  }

  /** Fit + encode one LeCo partition of `values(from until until)`. */
  def encode(values: Array[Long], from: Int, until: Int): LecoPartition =
    new LineFit(keepDeltas = true).fit(values, from, until).toPartition(until - from)

  /** Encodes one FOR frame of `values(from until until)`: the constant model. */
  def encodeConstant(values: Array[Long], from: Int, until: Int): LecoPartition =
    new LineFit(keepDeltas = true).window(values, from, until, 0L, 0).toPartition(until - from)

  def read(buf: ByteBuffer): LecoPartition = {
    val len = PartitionedInts.readLen(buf)
    val anchor = buf.getLong
    val flags = buf.get() & 0xff
    val width = PartitionedInts.checkWidth(flags & ~SlopeFlag)
    val flagged = (flags & SlopeFlag) != 0
    val word = if (flagged) buf.getLong else 0L
    require(!flagged || slopeOf(word) != 0, "a model word of slope 0: a flat partition carries none")
    LecoPartition(anchor, slopeOf(word), shiftOf(word), phaseOf(word), width, len, BitPack.getPayload(buf, len, width))
  }

  /** `get(j)` of the partition whose bytes start at `off` of the source
    * `bytes(off, len)`, reading only its header and the payload word(s)
    * that hold delta `j`: a paged dictionary's lookup.
    */
  def getAt(bytes: (Long, Int) => Array[Byte], off: Long, j: Int): Long = {
    val hdr = ByteBuffer.wrap(bytes(off, Codec.LinearHeaderBytes))
    hdr.getInt // len
    val anchor = hdr.getLong
    val flags = hdr.get() & 0xff
    val width = flags & ~SlopeFlag
    val word = if ((flags & SlopeFlag) == 0) 0L else hdr.getLong
    val offset = (slopeOf(word) * j + phaseOf(word)) >> shiftOf(word)
    val bitPos = j.toLong * width
    val spills = (bitPos & 63) + width > 64
    val payload = ByteBuffer.wrap(bytes(off + hdr.position() + (bitPos >>> 6) * 8, if (spills) 16 else 8))
      .order(ByteOrder.LITTLE_ENDIAN)
    val words = Array(payload.getLong(0), if (spills) payload.getLong(8) else 0L)
    anchor + offset + BitPack.readAt(words, bitPos & 63, width)
  }
}

/** LeCo with fixed-length partitions (LeCo-fix, §3.2.1).
  *
  * `partitionSize = 0` triggers the sampling-based size search. Random access
  * locates the partition by division — no metadata search.
  */
final class LecoFixCodec(val partitionSize: Int = 0) extends IntCodec {
  val name = "LeCo-fix"

  def compress(values: Array[Long]): LecoFixCompressed = FixedPartitions.encode(
    values, Partitioner.fixedSize(values, partitionSize, LecoFixCodec.costAt))(LecoPartition.encoder(fit = true))
}

object LecoFixCodec {
  /** Encoded bytes of a partition — the search cost fn. The block sums of
    * the values are taken once, and one [[LineFit]] serves every partition
    * of every size. A partition whose slope comes out 0 is charged the
    * 13-byte header it is written with, so the search's floor is that header.
    */
  val costAt: SizeCost = new SizeCost(Codec.SimpleHeaderBytes) {
    def on(values: Array[Long]): (Int, Int) => Long = {
      val blocks = LineFit.blockSums(values)
      val line = new LineFit
      (s, e) => {
        line.fit(values, s, e, blocks)
        line.headerBytes + BitPack.payloadBytes(e - s, line.width)
      }
    }
  }
}

/** LeCo with variable-length partitions (LeCo-var, §3.2.2): greedy
  * split/merge boundaries; random access binary-searches the partition start
  * index (the paper uses ALEX for this lower-bound search; a branchless
  * binary search stands in — same asymptotics, §4.3.2's extra ~35–90 ns).
  */
final class LecoVarCodec(val tau: Double = 0.1) extends IntCodec {
  val name = "LeCo-var"

  def compress(values: Array[Long]): VariablePartitions[LecoPartition] = VariablePartitions.encode(
    values, Partitioner.variable(values, Partitioner.LinearMode, tau))(LecoPartition.encoder(fit = true))
}
