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

  @inline private def zigzag(d: Long): Long = (d << 1) ^ (d >> 63)
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
    * then refine around the minimum. `cost(sample, size)` returns the
    * compressed byte count of the sample at that partition size.
    */
  def searchFixedSize(values: Array[Long],
                      cost: (Array[Long], Int) => Long,
                      maxSize: Int = 65536,
                      sampleTarget: Int = 65536,
                      seed: Long = 42): Int = {
    val sample = sampleOf(values, sampleTarget, seed)
    val ladder = Iterator.iterate(16)(_ * 2).takeWhile(s => s <= math.min(maxSize, sample.length)).toArray
    val sizes  = if (ladder.isEmpty) Array(math.max(1, sample.length)) else ladder
    val costs  = sizes.map(s => cost(sample, s))
    var bi = 0
    var i  = 1
    while (i < costs.length) { if (costs(i) < costs(bi)) bi = i; i += 1 }
    // Refine: probe midpoints toward each neighbor of the ladder minimum.
    var best = sizes(bi); var bestCost = costs(bi)
    for (cand <- Seq(best * 3 / 4, best * 3 / 2) if cand >= 8 && cand <= sample.length) {
      val c = cost(sample, cand)
      if (c < bestCost) { best = cand; bestCost = c }
    }
    best
  }

  /** Sum of `cost(from, until)` over consecutive `size`-value partitions of
    * `values` — the shape of every fixed-size search cost fn.
    */
  def fixedCost(values: Array[Long], size: Int)(cost: (Int, Int) => Long): Long = {
    require(size > 0, s"partition size $size")
    var total = 0L
    var s = 0
    while (s < values.length) { val e = math.min(s + size, values.length); total += cost(s, e); s = e }
    total
  }

  /** Encodes consecutive `size`-value partitions of `values`. */
  def encodeFixed[P: ClassTag](values: Array[Long], size: Int)(encode: (Array[Long], Int, Int) => P): Array[P] = {
    require(size > 0, s"partition size $size")
    Array.tabulate((values.length + size - 1) / size) { p =>
      encode(values, p * size, math.min(p * size + size, values.length))
    }
  }

  /** Contiguous-window sample of ~`target` values: `target / 8192` windows of
    * 8192 values at seeded random starts. Inputs of at most `target` values
    * are used whole. With the default 65,536 this is far from the paper's
    * <1%: 33% of a 200k-value `codec_micro` set, 6.5% of a Fig 10 set.
    */
  def sampleOf(values: Array[Long], target: Int, seed: Long): Array[Long] = {
    val n = values.length
    if (n <= target) return values
    val window  = 8192
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

  /** Exact DP-optimal partitioning for the linear regressor — O(n³), test
    * oracle only (§3.2 notes the exhaustive search is impractical at scale).
    */
  def optimalLinear(values: Array[Long], headerBits: Int = Codec.LinearHeaderBytes * 8): Partitions = {
    val n = values.length
    val best  = new Array[Long](n + 1)
    val from  = new Array[Int](n + 1)
    best(0) = 0
    var j = 1
    while (j <= n) {
      best(j) = Long.MaxValue
      var i = 0
      while (i < j) {
        val w    = Regressor.linearDeltaBits(values, i, j)
        val cost = best(i) + headerBits + (j - i).toLong * w
        if (cost < best(j)) { best(j) = cost; from(j) = i }
        i += 1
      }
      j += 1
    }
    val starts = ArrayBuffer[Int]()
    var p = n
    while (p > 0) { starts += from(p); p = from(p) }
    Partitions(starts.reverse.toArray, n)
  }

  /** Total encoded bits of a partition arrangement under the exact linear
    * regressor — used to compare greedy vs DP in tests.
    */
  def linearCostBits(values: Array[Long], parts: Partitions,
                     headerBits: Int = Codec.LinearHeaderBytes * 8): Long = {
    var total = 0L
    var k = 0
    while (k < parts.count) {
      val s = parts.starts(k); val e = parts.end(k)
      total += headerBits + (e - s).toLong * Regressor.linearDeltaBits(values, s, e)
      k += 1
    }
    total
  }
}
