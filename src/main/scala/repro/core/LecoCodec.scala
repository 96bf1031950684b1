package repro.core

import java.nio.ByteBuffer
import scala.annotation.tailrec
import scala.collection.mutable.ArrayBuilder

/** One encoded LeCo partition: linear model + fixed-width biased deltas +
  * the θ1-accumulation error-correction list (§3.3).
  *
  * `corrections` holds the in-partition positions where sequential decode via
  * `pred += θ1` floors differently from direct inference `floor(θ0 + θ1·i)`;
  * at those positions the decoder recomputes directly and resynchronizes.
  *
  * Byte layout: `[len:i32][θ0:f64][θ1:f64][width:u8]`, then, when the high
  * bit of the width byte is set, `[count:i32][position:i32 × count]` of the
  * correction list, then the packed deltas.
  */
final case class LecoPartition(theta0: Double, theta1: Double, width: Int,
                               len: Int, words: Array[Long], corrections: Array[Int]) extends EncodedPartition {
  @inline def predict(j: Int): Long = math.floor(theta0 + theta1 * j).toLong
  @inline def get(j: Int): Long = predict(j) + BitPack.read(words, j, width)

  /** Sequential decode with the accumulation optimization (one FP add per
    * value instead of mul+add), writing into `out(outOff ...)`.
    */
  def decodeInto(out: Array[Long], outOff: Int): Unit = {
    var acc  = theta0
    var ci   = 0
    var j    = 0
    while (j < len) {
      var base = math.floor(acc).toLong
      if (ci < corrections.length && corrections(ci) == j) {
        base = predict(j) // resynchronize at a recorded precision slip
        acc  = theta0 + theta1 * j
        ci += 1
      }
      out(outOff + j) = base + BitPack.read(words, j, width)
      acc += theta1
      j += 1
    }
  }

  /** Partition-bound skipping plus LeCo's in-partition computation pruning
    * (§5.1.1): model prediction is a lower bound of the value (deltas are
    * biased non-negative), so with θ1 > 0 the scanner jumps over position
    * ranges whose value interval provably misses the predicate.
    */
  override def scanInto(pred: ScanPredicate, base: Int, out: ArrayBuilder.ofInt): Unit = {
    val maxDelta = if (width >= 63) Long.MaxValue / 2 else (1L << width) - 1
    val pLo = math.min(predict(0), predict(len - 1))
    val pHi = math.max(predict(0), predict(len - 1)) + maxDelta
    if (pred.mayMatch(pLo, pHi)) {
      val jumpable = theta1 > 0
      var j = 0
      while (j < len) {
        val lo = predict(j)
        val next = if (jumpable) pred.nextMatch(lo) else lo
        // `next >= lo`; a difference past Long.MaxValue wraps negative and does not jump
        if (next - lo > maxDelta) {
          // no value at or after j can match before the next match:
          // values at positions j..k-1 all lie in [lo, nextMatch).
          val target = next - maxDelta
          val skip = math.max(1L, ((target - theta0) / theta1).toLong - j)
          j += math.min(skip, (len - j).toLong).toInt
        } else {
          // value = lo + delta: reuse the bound instead of a second predict
          if (pred.test(lo + BitPack.read(words, j, width))) out += base + j
          j += 1
        }
      }
    }
  }

  def payloadBytes: Long = BitPack.payloadBytes(len, width)
  def sizeBytes: Long =
    Codec.LinearHeaderBytes + (if (corrections.isEmpty) 0 else 4 + 4L * corrections.length) + payloadBytes

  def writeTo(buf: ByteBuffer): Unit = {
    buf.putInt(len).putDouble(theta0).putDouble(theta1)
    if (corrections.isEmpty) buf.put(width.toByte)
    else {
      buf.put((width | LecoPartition.CorrectionsFlag).toByte).putInt(corrections.length)
      corrections.foreach(buf.putInt)
    }
    BitPack.putPayload(buf, words, len, width)
  }
}

object LecoPartition {
  private val CorrectionsFlag = 0x80

  /** Fit + encode one partition of `values(from until until)`. */
  def encode(values: Array[Long], from: Int, until: Int): LecoPartition =
    encodeFit(Regressor.fitLinear(values, from, until), values, from, until, refits = 3)

  /** Encodes with `fit`, or, when a delta falls outside `[0, 2^width)`, with
    * `fit` folded again from the deltas it really has. Folding δmin into θ0
    * (`Regressor.refit`) keeps `floor` exact only in exact arithmetic: a
    * prediction within an ulp of an integer can land one off once folded,
    * even on values below 10. A fit still off after `refits` folds is
    * rejected rather than packed wrong.
    */
  @tailrec private def encodeFit(fit: Fit, values: Array[Long], from: Int, until: Int, refits: Int): LecoPartition = {
    val t0       = fit.model.theta0
    val t1       = fit.model.theta1
    val n        = until - from
    val maxDelta = if (fit.bitWidth >= 63) Long.MaxValue else (1L << fit.bitWidth) - 1
    val words    = new Array[Long](BitPack.wordsFor(n, fit.bitWidth))
    val corr     = new ArrayBuilder.ofInt
    var acc      = t0
    var fits     = true
    var x = 0.0 // the position j as a Double, exact below 2^53 (see LineFit)
    var j = 0
    while (j < n && fits) {
      val direct = math.floor(t0 + t1 * x).toLong
      if (math.floor(acc).toLong != direct) { corr += j; acc = t0 + t1 * x }
      val delta = values(from + j) - direct
      fits = delta >= 0 && delta <= maxDelta
      if (fits) BitPack.write(words, j.toLong * fit.bitWidth, fit.bitWidth, delta)
      acc += t1
      x += 1.0
      j += 1
    }
    if (fits) LecoPartition(t0, t1, fit.bitWidth, n, words, corr.result())
    else {
      require(refits > 0, s"no linear model encodes values($from until $until) exactly")
      encodeFit(Regressor.refit(fit.model, values, from, until), values, from, until, refits - 1)
    }
  }

  def read(buf: ByteBuffer): LecoPartition = {
    val len = PartitionedInts.readLen(buf)
    val t0 = buf.getDouble; val t1 = buf.getDouble
    val flags = buf.get() & 0xff
    val width = PartitionedInts.checkWidth(flags & ~CorrectionsFlag)
    val corr =
      if ((flags & CorrectionsFlag) == 0) Array.emptyIntArray
      else {
        val count = buf.getInt
        require(count > 0 && count <= len, s"$count corrections in a partition of $len")
        Array.fill(count)(buf.getInt)
      }
    LecoPartition(t0, t1, width, len, BitPack.getPayload(buf, len, width), corr)
  }
}

/** LeCo with fixed-length partitions (LeCo-fix, §3.2.1).
  *
  * `partitionSize = 0` triggers the sampling-based size search. Random access
  * locates the partition by division — no metadata search.
  */
final class LecoFixCodec(val partitionSize: Int = 0) extends IntCodec {
  val name = "LeCo-fix"

  def compress(values: Array[Long]): LecoFixCompressed = {
    val size =
      if (partitionSize > 0) partitionSize
      else Partitioner.searchFixedSize(values, (s, l) => LecoFixCodec.costAt(s, l))
    new LecoFixCompressed(values.length, size, Partitioner.encodeFixed(values, size)(LecoPartition.encode))
  }
}

object LecoFixCodec {
  /** Compressed bytes of `sample` at partition size `l` — the search cost fn.
    * Counts the model header and packed deltas, not correction lists, and
    * reuses one [[LineFit]] across the partitions.
    */
  def costAt(sample: Array[Long], l: Int): Long = {
    val line = new LineFit
    Partitioner.fixedCost(sample, l) { (s, e) =>
      Codec.LinearHeaderBytes + BitPack.payloadBytes(e - s, line.fit(sample, s, e).width)
    }
  }
}

final class LecoFixCompressed(val n: Int, val partSize: Int, val parts: Array[LecoPartition])
    extends FixedPartitions {
  override def modelBytes: Long = parts.length.toLong * Codec.LinearHeaderBytes
  def get(i: Int): Long = { val p = parts(i / partSize); p.get(i % partSize) }
}

object LecoFixCompressed {
  def read(buf: ByteBuffer): LecoFixCompressed = {
    val (n, size, parts) = PartitionedInts.readFixed(buf)(LecoPartition.read)
    new LecoFixCompressed(n, size, parts)
  }
}

/** LeCo with variable-length partitions (LeCo-var, §3.2.2): greedy
  * split/merge boundaries; random access binary-searches the partition start
  * index (the paper uses ALEX for this lower-bound search; a branchless
  * binary search stands in — same asymptotics, §4.3.2's extra ~35–90 ns).
  */
final class LecoVarCodec(val tau: Double = 0.1) extends IntCodec {
  val name = "LeCo-var"

  def compress(values: Array[Long]): LecoVarCompressed =
    LecoVarCompressed.encode(values, Partitioner.variable(values, Partitioner.LinearMode, tau))
}

final class LecoVarCompressed(val n: Int, val starts: Array[Int], val parts: Array[LecoPartition])
    extends VariablePartitions {
  override def modelBytes: Long = parts.length.toLong * Codec.LinearHeaderBytes
  def get(i: Int): Long = { val k = partitionOf(i); parts(k).get(i - starts(k)) }
}

object LecoVarCompressed {
  def encode(values: Array[Long], ps: Partitions): LecoVarCompressed =
    new LecoVarCompressed(values.length, ps.starts,
                          Array.tabulate(ps.count)(k => LecoPartition.encode(values, ps.starts(k), ps.end(k))))

  def read(buf: ByteBuffer): LecoVarCompressed = {
    val (n, starts, parts) = PartitionedInts.readVariable(buf)(LecoPartition.read)
    new LecoVarCompressed(n, starts, parts)
  }
}
