package repro.core

import java.nio.{ByteBuffer, ByteOrder}
import scala.collection.mutable.ArrayBuilder

/** One encoded partition of LeCo or FOR: a model, `predict(j) = anchor +
  * floor(θ1·j)`, plus fixed-width non-negative deltas (§3). FOR is the
  * constant model, θ1 = 0, whose anchor is the frame minimum (§2).
  *
  * The anchor is an exact `Long` that no `Double` touches, and the sums wrap,
  * so every partition of every input is exact and fits a width of 64. Decode
  * computes `floor(θ1·j)` directly, one multiply per value, so there is no
  * §3.3 correction list.
  *
  * Byte layout: `[len:i32][anchor:i64][width:u8]`, the high bit of the width
  * byte set when `[θ1:f64]` follows (`linear`: always for LeCo, never for
  * FOR), then the packed deltas.
  */
final case class LecoPartition(anchor: Long, theta1: Double, linear: Boolean, width: Int,
                               len: Int, words: Array[Long]) extends EncodedPartition {
  @inline def predict(j: Int): Long = anchor + LineFit.floorAt(theta1, j)
  @inline def get(j: Int): Long = predict(j) + BitPack.read(words, j, width)

  /** Always empty; kept only for perfbench's `leco.corrections` count. */
  def corrections: Array[Int] = Array.emptyIntArray

  /** Sequential decode into `out(outOff ...)`; the position is a `Double` counter, as in [[LineFit]]. */
  def decodeInto(out: Array[Long], outOff: Int): Unit = {
    val t1 = theta1
    var x = 0.0
    var j = 0
    while (j < len) {
      out(outOff + j) = anchor + LineFit.floorAt(t1, x) + BitPack.read(words, j, width)
      x += 1.0
      j += 1
    }
  }

  /** Partition-bound skipping plus LeCo's in-partition computation pruning
    * (§5.1.1). The value at `j` lies in `[predict(j), predict(j) + span]`, so
    * with θ1 > 0 the scanner jumps over position ranges whose values
    * provably miss the predicate. Where those bounds would wrap past the
    * signed range, every value is decoded and tested.
    */
  override def scanInto(pred: ScanPredicate, base: Int, out: ArrayBuilder.ofInt): Unit = {
    // the largest delta, unsigned, capped so that `anchor + span` stays a Long
    val maxDelta = if (width == 64) -1L else (1L << width) - 1
    val span = if (java.lang.Long.compareUnsigned(maxDelta, Long.MaxValue - anchor) > 0) Long.MaxValue - anchor
               else maxDelta
    val pEnd = LineFit.floorAt(theta1, len - 1) // floor(θ1·j) is monotone and 0 at j = 0
    val lo = anchor + math.min(pEnd, 0L)
    val hi = anchor + span + math.max(pEnd, 0L)
    if (lo > anchor || hi < anchor + span) super.scanInto(pred, base, out)
    else if (pred.mayMatch(lo, hi)) {
      val jumpable = theta1 > 0
      var j = 0
      while (j < len) {
        val low = predict(j)
        val next = if (jumpable) pred.nextMatch(low) else low
        if (java.lang.Long.compareUnsigned(next - low, span) > 0) {
          // positions j..k-1 predict below `next - span`, so none reaches `next`
          val target = next - span
          val t = target - anchor // what floor(θ1·k) must reach; wrapped negative, no k does
          var k = if (t < 0) len else math.max(j + 1, math.min(len.toDouble, t / theta1).toInt)
          while (k > j + 1 && predict(k - 1) >= target) k -= 1
          j = k
        } else {
          // value = low + delta: reuse the bound instead of a second predict
          if (pred.test(low + BitPack.read(words, j, width))) out += base + j
          j += 1
        }
      }
    }
  }

  def headerBytes: Int = if (linear) Codec.LinearHeaderBytes else Codec.SimpleHeaderBytes
  def payloadBytes: Long = BitPack.payloadBytes(len, width)
  def sizeBytes: Long = headerBytes + payloadBytes

  def writeTo(buf: ByteBuffer): Unit = {
    buf.putInt(len).putLong(anchor)
    if (linear) buf.put((width | LecoPartition.SlopeFlag).toByte).putDouble(theta1)
    else buf.put(width.toByte)
    BitPack.putPayload(buf, words, len, width)
  }
}

object LecoPartition {
  private val SlopeFlag = 0x80

  /** Fit + encode one LeCo partition of `values(from until until)`. */
  def encode(values: Array[Long], from: Int, until: Int): LecoPartition =
    pack(Regressor.fitLinear(values, from, until), linear = true, values, from, until)

  /** Encodes one FOR frame of `values(from until until)`: the constant model. */
  def encodeConstant(values: Array[Long], from: Int, until: Int): LecoPartition =
    pack(new LineFit().window(values, from, until, 0.0).toFit, linear = false, values, from, until)

  /** Packs `v(j) - floor(θ1·j) - anchor` of `fit`'s window: each lies in
    * `[0, δmax − δmin]`, which the fit's width holds.
    */
  private def pack(fit: Fit, linear: Boolean, values: Array[Long], from: Int, until: Int): LecoPartition = {
    val t1     = fit.theta1
    val anchor = fit.anchor
    val width  = fit.bitWidth
    val n      = until - from
    val words  = new Array[Long](BitPack.wordsFor(n, width))
    var x = 0.0
    var j = 0
    while (j < n) {
      BitPack.write(words, j.toLong * width, width, values(from + j) - LineFit.floorAt(t1, x) - anchor)
      x += 1.0
      j += 1
    }
    LecoPartition(anchor, t1, linear, width, n, words)
  }

  def read(buf: ByteBuffer): LecoPartition = {
    val len = PartitionedInts.readLen(buf)
    val anchor = buf.getLong
    val flags = buf.get() & 0xff
    val width = PartitionedInts.checkWidth(flags & ~SlopeFlag)
    val linear = (flags & SlopeFlag) != 0
    val theta1 = if (linear) buf.getDouble else 0.0
    LecoPartition(anchor, theta1, linear, width, len, BitPack.getPayload(buf, len, width))
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
    val theta1 = if ((flags & SlopeFlag) != 0) hdr.getDouble else 0.0
    val bitPos = j.toLong * width
    val spills = (bitPos & 63) + width > 64
    val payload = ByteBuffer.wrap(bytes(off + hdr.position() + (bitPos >>> 6) * 8, if (spills) 16 else 8))
      .order(ByteOrder.LITTLE_ENDIAN)
    val words = Array(payload.getLong(0), if (spills) payload.getLong(8) else 0L)
    anchor + LineFit.floorAt(theta1, j) + BitPack.readAt(words, bitPos & 63, width)
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
    values, Partitioner.fixedSize(values, partitionSize, LecoFixCodec.costAt))(LecoPartition.encode)
}

object LecoFixCodec {
  /** Compressed bytes of `sample` at partition size `l` — the search cost fn.
    * Reuses one [[LineFit]] across the partitions.
    */
  def costAt(sample: Array[Long], l: Int): Long = {
    val line = new LineFit
    Partitioner.fixedCost(sample, l) { (s, e) =>
      Codec.LinearHeaderBytes + BitPack.payloadBytes(e - s, line.fit(sample, s, e).width)
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
    values, Partitioner.variable(values, Partitioner.LinearMode, tau))(LecoPartition.encode)
}
