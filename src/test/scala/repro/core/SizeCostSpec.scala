package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.baseline.{DeltaFixCodec, DeltaPartition, ForCodec}

/** The fixed-size search charges each candidate size exactly the bytes the
  * encoder then writes, so the size it picks is the smallest encoding of
  * the sample among the candidates.
  */
class SizeCostSpec extends AnyFunSuite {
  import SizeCostSpec._

  test("costAt of LeCo-fix, FOR and Delta-fix is the sizeBytes of their encoding") {
    ByteLayoutSpec.check(Prop.forAllNoShrink(sample, Gen.oneOf(Gen.choose(1, 4096), Gen.oneOf(1, 12, 16, 24, 48, 4096))) {
      (vals, l) =>
        LecoFixCodec.costAt(vals, l) == FixedPartitions.encode(vals, l)(LecoPartition.encode).sizeBytes &&
          ForCodec.costAt(vals, l) == FixedPartitions.encode(vals, l)(LecoPartition.encodeConstant).sizeBytes &&
          DeltaFixCodec.costAt(vals, l) == FixedPartitions.encode(vals, l)(DeltaPartition.encode).sizeBytes
    })
  }

  test("searchFixedSize picks the size an ascending search of every candidate picks") {
    ByteLayoutSpec.check(Prop.forAllNoShrink(sample) { vals =>
      Seq(LecoFixCodec.costAt, ForCodec.costAt, DeltaFixCodec.costAt).forall { cost =>
        Partitioner.searchFixedSize(vals, cost, sampleTarget = 4096) == everyCandidate(vals, cost, 4096)
      }
    })
  }
}

object SizeCostSpec {
  /** The search without skipping: the first ladder minimum, then each refine
    * probe that beats it.
    */
  def everyCandidate(values: Array[Long], cost: SizeCost, sampleTarget: Int): Int = {
    val sample = Partitioner.sampleOf(values, sampleTarget, 42)
    val ladder = Iterator.iterate(16)(_ * 2).takeWhile(_ <= sample.length).toArray
    val sizes  = if (ladder.isEmpty) Array(math.max(1, sample.length)) else ladder
    val costs  = sizes.map(cost(sample, _))
    var best = sizes(costs.indexOf(costs.min)); var bestCost = costs.min
    for (cand <- Seq(best * 3 / 4, best * 3 / 2) if cand >= 8 && cand <= sample.length) {
      val c = cost(sample, cand)
      if (c < bestCost) { best = cand; bestCost = c }
    }
    best
  }

  /** Smooth values (a line with a little noise), noisy ones (a random walk
    * with wide steps) and full-range random ones, 0 to 6000 of them.
    */
  val sample: Gen[Array[Long]] = for {
    n      <- Gen.oneOf(Gen.choose(0, 6000), Gen.oneOf(1, 15, 16, 17, 4096, 4097))
    kind   <- Gen.oneOf("smooth", "noisy", "full")
    offset <- Gen.long
    slope  <- Gen.choose(-100000L, 100000L)
    seed   <- Gen.long
  } yield {
    val r = new scala.util.Random(seed)
    var walk = offset
    Array.tabulate(n) { i =>
      kind match {
        case "smooth" => offset + slope * i + r.nextInt(64)
        case "noisy"  => walk += r.nextInt(1 << 20) - (1 << 19); walk
        case _        => r.nextLong()
      }
    }
  }
}
