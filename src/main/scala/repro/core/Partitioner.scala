package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag

/** A partition boundary list: partition k spans `starts(k) until starts(k+1)`
  * (with an implicit final end of `n`).
  */
final case class Partitions(starts: Array[Int], n: Int) {
  def count: Int = starts.length
  def end(k: Int): Int = if (k + 1 < starts.length) starts(k + 1) else n
}

/** The cost function of the fixed-size search: `on(values)` gives the
  * encoded bytes of partition `values(s until e)`, doing whatever work
  * depends on `values` alone once, and `apply` sums them at a size, layout
  * prefix included. `headerBytes` is the least header any partition is
  * written with.
  */
abstract class SizeCost(val headerBytes: Int) extends ((Array[Long], Int) => Long) {
  def on(values: Array[Long]): (Int, Int) => Long
  def apply(values: Array[Long], size: Int): Long = Partitioner.fixedCost(values, size)(on(values))
}

/** The LeCo Partitioner (§3.2): fixed-length with sampling-based size search
  * and variable-length via the greedy split/merge algorithm.
  */
object Partitioner {

  /** The model the variable-length partitioner is serving. Determines the
    * Δ̃ approximation (computed from adjacent diffs, combinable in O(1))
    * and the per-partition model size S_M.
    */
  sealed trait Mode { def modelBits: Int; def minStart: Int }
  /** Linear regressor: Δ̃ = bits(max dₖ − min dₖ) (§3.2.2 "Linear Regressor"). */
  case object LinearMode extends Mode {
    val modelBits: Int = Codec.LinearHeaderBytes * 8
    val minStart: Int = 3
  }
  /** Delta model: Δ̃ = bits(max zigzag(dₖ)) (§3.2.2 "Delta Encoding"). */
  case object DeltaMode extends Mode {
    val modelBits: Int = Codec.SimpleHeaderBytes * 8
    val minStart: Int = 2
  }

  @inline private def umax(a: Long, b: Long): Long = if (java.lang.Long.compareUnsigned(a, b) >= 0) a else b

  /** Interior-diff aggregates of a partition's `len` diffs, combinable across
    * a boundary diff in O(1) — this is what makes split and merge
    * linear-time. Diffs wrap; `maxD - minD` and `maxZ` are read unsigned.
    */
  private final case class Agg(maxD: Long, minD: Long, maxZ: Long, len: Int) {
    def width(mode: Mode): Int =
      if (len == 0) 0
      else mode match {
        case LinearMode => BitPack.bitsFor(maxD - minD)
        case DeltaMode  => BitPack.bitsFor(maxZ)
      }
    def add(d: Long): Agg =
      Agg(math.max(maxD, d), math.min(minD, d), umax(maxZ, zigzag(d)), len + 1)
    def merge(boundary: Long, o: Agg): Agg =
      Agg(math.max(math.max(maxD, boundary), o.maxD),
          math.min(math.min(minD, boundary), o.minD),
          umax(umax(maxZ, zigzag(boundary)), o.maxZ),
          len + 1 + o.len)
  }
  private val EmptyAgg = Agg(Long.MinValue, Long.MaxValue, 0L, 0)

  /** Greedy variable-length partitioning (§3.2.2).
    *
    * Split phase: scan left to right; a data point joins the current
    * partition iff the marginal space cost
    * `C = (len+1)·Δ̃(new) − len·Δ̃(old)` is ≤ τ·S_M. Merge phase: repeatedly
    * merge adjacent partitions whenever the merged size
    * `S_M + len·Δ̃` beats the sum of the individual sizes, until fixpoint.
    *
    * Deviation from the paper (documented in DESIGN.md): the paper seeds the
    * split phase at second-order-delta minima and grows by precedence; we
    * scan left-to-right with the same cost rule and let the merge phase
    * repair over-splitting.
    */
  def variable(values: Array[Long], mode: Mode, tau: Double): Partitions = {
    val n = values.length
    val sm        = mode.modelBits
    val threshold = tau * sm
    val starts = ArrayBuffer[Int]()
    val aggs   = ArrayBuffer[Agg]()

    var start = 0
    while (start < n) {
      var end = math.min(start + mode.minStart, n)
      var agg = EmptyAgg
      var k = start + 1
      while (k < end) { agg = agg.add(values(k) - values(k - 1)); k += 1 }
      var growing = true
      while (growing && end < n) {
        val len  = end - start
        val next = agg.add(values(end) - values(end - 1))
        val cost = (len + 1).toLong * next.width(mode) - len.toLong * agg.width(mode)
        if (cost <= threshold) { agg = next; end += 1 }
        else growing = false
      }
      starts += start; aggs += agg
      start = end
    }

    // Merge phase: left-to-right passes until no merge fires.
    var changed = true
    while (changed && starts.length > 1) {
      changed = false
      val ns = ArrayBuffer[Int]()
      val na = ArrayBuffer[Agg]()
      var i = 0
      while (i < starts.length) {
        if (na.nonEmpty) {
          val curStart  = ns.last
          val curAgg    = na.last
          val b         = starts(i)
          val thisEnd   = if (i + 1 < starts.length) starts(i + 1) else n
          val curLen    = b - curStart
          val thisLen   = thisEnd - b
          val boundary  = values(b) - values(b - 1)
          val merged    = curAgg.merge(boundary, aggs(i))
          val mergedSz  = sm.toLong + (curLen + thisLen).toLong * merged.width(mode)
          val splitSz   = 2L * sm + curLen.toLong * curAgg.width(mode) +
                          thisLen.toLong * aggs(i).width(mode)
          if (mergedSz < splitSz) { na(na.length - 1) = merged; changed = true }
          else { ns += b; na += aggs(i) }
        } else { ns += starts(i); na += aggs(i) }
        i += 1
      }
      starts.clear(); starts ++= ns
      aggs.clear(); aggs ++= na
    }
    Partitions(starts.toArray, n)
  }

  /** Fixed-length partitioning with the sampling-based size search of
    * §3.2.1: evaluate an exponential ladder of candidate sizes on a sample,
    * then refine around the minimum. An input of at most [[SampleValues]]
    * values is taken whole and costed exactly, so any size up to its length
    * may win. A sample's windows are drawn at unrelated places, and at a
    * whole window the estimate rests on 8 partitions, so no size above three
    * quarters of a window, 6,144, is tried: on Fig 10's booksale (1M values)
    * LeCo-fix's pick of 8,192 was 1.7x larger, Elias-Fano's of 65,536 15%.
    */
  def searchFixedSize(values: Array[Long], cost: SizeCost): Int = {
    val sample = sampleOf(values, SampleValues, seed = 42)
    val partCost = cost.on(sample)
    def costWithin(size: Int, bound: Long): Long = fixedCost(sample, size, bound, cost.headerBytes)(partCost)
    val largest = if (values.length <= SampleValues) values.length else SampleWindow * 3 / 4
    val ladder = Iterator.iterate(16)(_ * 2).takeWhile(_ <= largest).toArray
    val sizes  = if (ladder.isEmpty) Array(math.max(1, sample.length)) else ladder
    // The ladder minimum, the smallest size of equal cost. Sizes go largest
    // first, so the best cost so far bounds the smaller ones, whose headers
    // weigh more.
    var best = 0; var bestCost = Long.MaxValue
    var i = sizes.length - 1
    while (i >= 0) {
      val c = costWithin(sizes(i), bestCost)
      if (c <= bestCost) { best = sizes(i); bestCost = c }
      i -= 1
    }
    // Refine: probe midpoints toward each neighbor of the ladder minimum.
    for (cand <- Seq(best * 3 / 4, best * 3 / 2) if cand >= 8 && cand <= largest) {
      val c = costWithin(cand, bestCost - 1)
      if (c < bestCost) { best = cand; bestCost = c }
    }
    best
  }

  /** `size` when it is positive, otherwise the size `searchFixedSize` finds
    * under `cost`.
    */
  def fixedSize(values: Array[Long], size: Int, cost: SizeCost): Int =
    if (size > 0) size else searchFixedSize(values, cost)

  /** The layout prefix plus `cost(from, until)` over consecutive
    * `size`-value partitions of `values`: what the size search charges a
    * candidate size, and the `sizeBytes` of its `FixedPartitions`. With a
    * `bound`, Long.MaxValue as soon as the partitions costed so far and
    * `leastHeader` for each one left come to more than `bound`: the search
    * does not cost whole a size that cannot be the minimum.
    */
  def fixedCost(values: Array[Long], size: Int, bound: Long = Long.MaxValue, leastHeader: Int = 0)
               (cost: (Int, Int) => Long): Long = {
    require(size > 0, s"partition size $size")
    var total = PartitionedInts.PrefixBytes.toLong
    var left = (values.length + size - 1) / size
    var s = 0
    while (s < values.length) {
      if (total + leastHeader.toLong * left > bound) return Long.MaxValue
      val e = math.min(s + size, values.length)
      total += cost(s, e)
      left -= 1
      s = e
    }
    total
  }

  /** Encodes consecutive `size`-value partitions of `values`. */
  def encodeFixed[P: ClassTag](values: Array[Long], size: Int)(encode: PartitionEncoder[P]): Array[P] = {
    require(size > 0, s"partition size $size")
    val parts = new Array[P]((values.length + size - 1) / size)
    var p = 0
    while (p < parts.length) { parts(p) = encode(values, p * size, math.min(p * size + size, values.length)); p += 1 }
    parts
  }

  /** Values per window of [[sampleOf]]. */
  val SampleWindow = 8192
  /** Values in the sample [[searchFixedSize]] judges sizes on. */
  val SampleValues = 65536

  /** Contiguous-window sample of ~`target` values: `target / 8192` windows of
    * 8192 values at seeded random starts. Inputs of at most `target` values
    * are used whole. At [[SampleValues]] this is far from the paper's
    * <1%: 33% of a 200k-value `codec_micro` set, 6.5% of a Fig 10 set.
    */
  def sampleOf(values: Array[Long], target: Int, seed: Long): Array[Long] = {
    val n = values.length
    if (n <= target) return values
    val window  = SampleWindow
    val nWin    = math.max(1, target / window)
    val len     = math.min(window, n)
    val rnd     = new scala.util.Random(seed)
    val out     = new Array[Long](nWin * len)
    var w = 0
    while (w < nWin) {
      val s = rnd.nextInt(math.max(1, n - window))
      System.arraycopy(values, s, out, w * len, len)
      w += 1
    }
    out
  }
}
