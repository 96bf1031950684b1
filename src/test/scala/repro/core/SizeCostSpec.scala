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
    def agrees(vals: Array[Long]): Boolean =
      Seq(LecoFixCodec.costAt, ForCodec.costAt, DeltaFixCodec.costAt).forall { cost =>
        Partitioner.searchFixedSize(vals, cost) == everyCandidate(vals, cost)
      }
    ByteLayoutSpec.check(Prop.forAllNoShrink(sample)(agrees))
    ByteLayoutSpec.check(Prop.forAllNoShrink(sampled)(agrees), cases = 12)
  }
}

object SizeCostSpec {
  /** The search without skipping: the first ladder minimum, then each refine
    * probe that beats it. An input the search takes whole may be cut at any
    * size up to its length, a sampled one at none above 6,144.
    */
  def everyCandidate(values: Array[Long], cost: SizeCost): Int = {
    val sample = Partitioner.sampleOf(values, Partitioner.SampleValues, 42)
    val largest = if (values.length <= Partitioner.SampleValues) values.length else 6144
    val ladder = Iterator.iterate(16)(_ * 2).takeWhile(_ <= largest).toArray
    val sizes  = if (ladder.isEmpty) Array(math.max(1, sample.length)) else ladder
    val costs  = sizes.map(cost(sample, _))
    var best = sizes(costs.indexOf(costs.min)); var bestCost = costs.min
    for (cand <- Seq(best * 3 / 4, best * 3 / 2) if cand >= 8 && cand <= largest) {
      val c = cost(sample, cand)
      if (c < bestCost) { best = cand; bestCost = c }
    }
    best
  }

  /** Smooth values (a line with a little noise), noisy ones (a random walk
    * with wide steps) and full-range random ones, 0 to 6000 of them: the
    * search takes each whole.
    */
  val sample: Gen[Array[Long]] = values(Gen.oneOf(Gen.choose(0, 6000), Gen.oneOf(1, 15, 16, 17, 4096, 4097)))

  /** The same kinds, 65,537 to 200,000 of them: the search samples each. */
  val sampled: Gen[Array[Long]] = values(Gen.oneOf(Gen.choose(65537, 200000), Gen.const(65537)))

  private def values(length: Gen[Int]): Gen[Array[Long]] = for {
    n      <- length
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
