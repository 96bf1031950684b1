package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import org.scalatest.concurrent.{ThreadSignaler, TimeLimits}
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.SpanSugar._
import repro.core.baseline.{DeltaFixCodec, EliasFanoCodec, ForCodec}
import repro.data.Datasets

class PartitionerSpec extends AnyFunSuite with TimeLimits {
  import Partitioner._
  import PartitionerSpec._

  private def checkPartitions(ps: Partitions): Unit = {
    assert(ps.starts.head == 0)
    assert(ps.starts.sameElements(ps.starts.sorted))
    assert(ps.starts.distinct.length == ps.starts.length)
    assert(ps.end(ps.count - 1) == ps.n)
    (0 until ps.count).foreach(k => assert(ps.starts(k) < ps.end(k), s"empty partition $k"))
  }

  test("variable partitioning covers the sequence exactly (linear mode)") {
    val r = new scala.util.Random(1)
    val vals = Array.tabulate(5000)(i => 3L * i + r.nextInt(100))
    checkPartitions(variable(vals, LinearMode, 0.1))
  }

  test("variable partitioning covers the sequence exactly (delta mode)") {
    val r = new scala.util.Random(2)
    val vals = Array.fill(5000)(r.nextInt(1000).toLong)
    checkPartitions(variable(vals, DeltaMode, 0.1))
  }

  test("a clean line stays in one partition") {
    val vals = Array.tabulate(10000)(i => 7L * i)
    val ps = variable(vals, LinearMode, 0.1)
    assert(ps.count == 1, s"expected 1 partition, got ${ps.count}")
  }

  test("two clean segments with a jump produce few partitions honoring the break") {
    val vals = Array.tabulate(2000)(i => if (i < 1000) 5L * i else 100_000_000L + 5L * i)
    val ps = variable(vals, LinearMode, 0.1)
    assert(ps.count <= 4, s"got ${ps.count}")
    assert(ps.starts.contains(1000), s"jump at 1000 not a boundary: ${ps.starts.mkString(",")}")
  }

  test("tau=0 splits aggressively, larger tau merges more") {
    val r = new scala.util.Random(3)
    val vals = Array.tabulate(3000)(i => 10L * i + r.nextInt(500))
    val fine   = variable(vals, LinearMode, 0.0).count
    val coarse = variable(vals, LinearMode, 0.5).count
    assert(fine >= coarse)
  }

  test("greedy cost within 2x of DP-optimal on small irregular inputs") {
    val r = new scala.util.Random(4)
    for (trial <- 1 to 5) {
      val vals = Array.tabulate(150) { i =>
        if (i % 50 < 25) 100L * i + r.nextInt(8) else 17L * i + r.nextInt(4000)
      }
      val greedy = variable(vals, LinearMode, 0.1)
      val opt    = optimalLinear(vals)
      val gc = linearCostBits(vals, greedy)
      val oc = linearCostBits(vals, opt)
      assert(oc <= gc, "DP must be at least as good")
      assert(gc <= 2 * oc, s"trial $trial: greedy $gc vs optimal $oc")
    }
  }

  test("DP optimal splits at an obvious discontinuity") {
    val vals = Array.tabulate(60)(i => if (i < 30) 2L * i else 1_000_000L + 2L * i)
    val ps = optimalLinear(vals)
    assert(ps.starts.contains(30))
    assert(linearCostBits(vals, ps) <= linearCostBits(vals, Partitions(Array(0), 60)))
  }

  test("merge phase repairs over-splitting on a clean line") {
    // tau=0 means every extra bit forbids growth, but the merge phase should
    // still collapse a perfect line into one partition
    val vals = Array.tabulate(500)(i => 4L * i)
    assert(variable(vals, LinearMode, 0.0).count == 1)
  }

  test("searchFixedSize returns a ladder size minimizing sampled cost") {
    val vals = Array.tabulate(100_000)(i => 3L * i)
    val best = searchFixedSize(vals, LecoFixCodec.costAt)
    // on a perfect line, bigger partitions amortize headers: expect large
    assert(best >= 4096, s"got $best")
  }

  test("searchFixedSize picks small partitions for piecewise data") {
    val r = new scala.util.Random(5)
    // slope changes every 256 values → large partitions pay wide deltas
    val vals = Array.tabulate(65536) { i =>
      val seg = i / 256
      (seg.toLong * 1_000_000L) + (i % 256).toLong * ((seg % 7) + 1) + r.nextInt(4)
    }
    val best = searchFixedSize(vals, LecoFixCodec.costAt)
    assert(best <= 1024, s"got $best")
  }

  test("searchFixedSize tries a sampled input to 6,144 and a whole one to its n") {
    // headers alone: the larger the size, the cheaper, so the search ends at
    // its cap; past the ladder's 4,096 and 65,536, the refine step would try
    // 6,144 and 98,304
    def longestAsked(n: Int): (Int, Int) = {
      var longest = 0
      val headersOnly = new SizeCost(Codec.SimpleHeaderBytes) {
        def on(values: Array[Long]): (Int, Int) => Long = { (s, e) => longest = math.max(longest, e - s); headerBytes }
      }
      (searchFixedSize(new Array[Long](n), headersOnly), longest)
    }
    assert(longestAsked(65537) == ((6144, 6144)))
    assert(longestAsked(65536) == ((65536, 65536)))
  }

  test("LeCo-fix on a whole 65,536-value line picks above 6,144, for fewer bytes") {
    val vals = Datasets.linear(65536)
    val c = new LecoFixCodec().compress(vals)
    assert(c.partSize > 6144)
    assert(c.sizeBytes < new LecoFixCodec(6144).compress(vals).sizeBytes, s"at ${c.partSize}")
  }

  test("Elias-Fano on a sampled 1M-value booksale takes at most 140,547 bytes") {
    val c = new EliasFanoCodec().compress(Datasets.booksale(1_000_000))
    assert(c.sizeBytes <= 140547, s"${c.sizeBytes} B at ${c.partSize}")
  }

  test("costAt at partition size 0 throws instead of spinning") {
    val sample = Array.tabulate(100)(_.toLong)
    val costs = Seq[(Array[Long], Int) => Long](LecoFixCodec.costAt, ForCodec.costAt, DeltaFixCodec.costAt)
    // a call that spins is left on a daemon thread; the wait for it times out
    failAfter(10.seconds) {
      Await.result(Future(costs.foreach(cost => intercept[IllegalArgumentException](cost(sample, 0))))(ExecutionContext.global),
                   Duration.Inf)
    }(ThreadSignaler)
    intercept[IllegalArgumentException](encodeFixed(sample, 0)(LecoPartition.encode))
  }

  test("sampleOf returns everything when input is small") {
    val vals = Array.tabulate(100)(_.toLong)
    assert(sampleOf(vals, 1000, 1).sameElements(vals))
  }

  test("sampleOf respects target size approximately") {
    val vals = Array.tabulate(1_000_000)(_.toLong)
    val s = sampleOf(vals, 65536, 1)
    assert(s.length <= 65536 + 8192)
    assert(s.length >= 8192)
    // exactly the 8 windows of 8192 values at the seeded starts, in draw order
    val r = new scala.util.Random(1)
    val windows = Array.fill(8)(r.nextInt(vals.length - 8192)).flatMap(st => vals.slice(st, st + 8192))
    assert(s.sameElements(windows))
  }

  test("sampleOf with a target under one window takes one clamped window") {
    val vals = Array.tabulate(5000)(_.toLong * 3)
    assert(sampleOf(vals, 1000, 1).sameElements(vals))
  }

  test("single-element input") {
    val ps = variable(Array(5L), LinearMode, 0.1)
    assert(ps.count == 1 && ps.n == 1)
  }

  test("two-element input") {
    val ps = variable(Array(5L, 9L), DeltaMode, 0.1)
    checkPartitions(ps)
  }

  test("all-equal input collapses to one partition") {
    val ps = variable(Array.fill(1000)(7L), LinearMode, 0.1)
    assert(ps.count == 1)
  }
}

object PartitionerSpec {

  /** Exact delta width a linear fit needs on `values(from until until)`: the
    * Δ(v) function of §3.2.2.
    */
  def linearDeltaBits(values: Array[Long], from: Int, until: Int): Int =
    new LineFit().fit(values, from, until).width

  /** Exact DP-optimal partitioning for the linear regressor: O(n³), the
    * oracle the greedy partitioner is checked against (§3.2 notes the
    * exhaustive search is impractical at scale).
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
        val w    = linearDeltaBits(values, i, j)
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
    * regressor, to compare greedy and DP.
    */
  def linearCostBits(values: Array[Long], parts: Partitions,
                     headerBits: Int = Codec.LinearHeaderBytes * 8): Long = {
    var total = 0L
    var k = 0
    while (k < parts.count) {
      val s = parts.starts(k); val e = parts.end(k)
      total += headerBits + (e - s).toLong * linearDeltaBits(values, s, e)
      k += 1
    }
    total
  }
}
