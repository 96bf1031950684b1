package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.Assertions
import org.scalatest.funsuite.AnyFunSuite

/** The fit, window, encode and search cost run the integer model in `Long`
  * arithmetic. These properties check them against [[LinearLoopsSpec.Reference]],
  * which evaluates the same model, `anchor + floor((slope·j + phase) / 2^shift)`,
  * in `BigInt`, on lengths from 1 to 65,536 and values that are smooth,
  * noisy, near ±2^52 and falling.
  */
class LinearLoopsSpec extends AnyFunSuite {
  import LinearLoopsSpec._

  test("fitLinear and linearDeltaBits match a BigInt evaluation of the model") {
    check(Prop.forAllNoShrink(partition) { case Part(vs, from, until) =>
      val fit = Regressor.fitLinear(vs, from, until)
      val ref = Reference.window(vs, from, until, fit.slope, fit.shift, fit.phase)
      val unphased = Reference.window(vs, from, until, fit.slope, fit.shift, 0L)
      Reference.withinLimits(fit.slope, fit.shift, fit.phase, until - from) &&
        fit.anchor == ref.anchor && fit.bitWidth == ref.width &&
        PartitionerSpec.linearDeltaBits(vs, from, until) == ref.width &&
        // a phase is kept only where it narrows the width, by one bit
        (if (fit.phase == 0) true else unphased.width == ref.width + 1)
    })
  }

  test("LecoPartition.encode packs the BigInt model's deltas") {
    check(Prop.forAllNoShrink(partition) { case Part(vs, from, until) =>
      val (p, fit) = (LecoPartition.encode(vs, from, until), Regressor.fitLinear(vs, from, until))
      val ref = Reference.window(vs, from, until, p.slope, p.shift, p.phase)
      val out = new Array[Long](until - from)
      p.decodeInto(out, 0)
      (p.anchor, p.slope, p.shift, p.phase, p.width) == ((fit.anchor, fit.slope, fit.shift, fit.phase, fit.bitWidth)) &&
        p.len == until - from && p.anchor == ref.anchor && p.width == ref.width &&
        p.words.sameElements(BitPackSpec.referencePack(ref.deltas, ref.width)) && out.sameElements(vs.slice(from, until))
    })
  }

  test("LecoFixCodec.costAt sums the widths of the BigInt model") {
    check(Prop.forAllNoShrink(partition, Gen.oneOf(16, 48, 64, 1024)) { case (Part(vs, _, _), l) =>
      val ref = Partitioner.fixedCost(vs, l) { (s, e) =>
        val fit = Regressor.fitLinear(vs, s, e)
        val header = if (fit.slope == 0) Codec.SimpleHeaderBytes else Codec.LinearHeaderBytes
        header + BitPack.payloadBytes(e - s, Reference.window(vs, s, e, fit.slope, fit.shift, fit.phase).width)
      }
      LecoFixCodec.costAt(vs, l) == ref
    })
  }
}

object LinearLoopsSpec {
  /** `values(from until until)`: the partition, after 0–3 values of padding. */
  final case class Part(values: Array[Long], from: Int, until: Int) {
    override def toString: String = s"Part(n=${until - from}, from=$from, head=${values.slice(from, from + 4).mkString(",")})"
  }

  val length: Gen[Int] = Gen.oneOf(Gen.oneOf(1, 2, 16, 1024, 65536), Gen.choose(1, 65536))

  /** `offset + slope·i + noise`, where the noise is drawn up to `2^noiseBits`
    * from a seeded generator, so long inputs cost no per-value generator.
    */
  val partition: Gen[Part] = for {
    n         <- length
    pad       <- Gen.choose(0, 3)
    offset    <- Gen.oneOf(Gen.choose(-1000000L, 1000000L),
                           Gen.choose((1L << 52) - 100000L, (1L << 52) + 100000L),
                           Gen.choose(-(1L << 52) - 100000L, -(1L << 52) + 100000L))
    slope     <- Gen.oneOf(Gen.choose(-1000.0, 1000.0), Gen.choose(-1.0, 1.0), Gen.const(0.0))
    noiseBits <- Gen.oneOf(0, 1, 4, 12, 24)
    seed      <- Gen.long
  } yield {
    val r = new scala.util.Random(seed)
    val vs = Array.tabulate(pad + n) { k =>
      offset + math.floor(slope * k).toLong + (if (noiseBits == 0) 0L else r.nextLong() & ((1L << noiseBits) - 1))
    }
    Part(vs, pad, pad + n)
  }

  /** Checks without shrinking: the counterexample's generator values say enough. */
  def check(prop: Prop): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(150).withInitialSeed(Seed(7L)), prop)
    Assertions.assert(res.passed, Pretty.pretty(res))
  }

  /** The window of a partition: its anchor, width and packed deltas. */
  final case class Window(anchor: Long, width: Int, deltas: Array[Long])

  /** The integer model in `BigInt`: nothing wraps but the 64-bit deltas. */
  object Reference {
    private val Two64 = BigInt(1) << 64

    /** `x` wrapped into the signed 64-bit range, as `Long` arithmetic leaves it. */
    def wrap(x: BigInt): BigInt = { val r = x.mod(Two64); if (r >= (Two64 >> 1)) r - Two64 else r }

    /** The fixed-point limits every partition header obeys. */
    def withinLimits(slope: Long, shift: Int, phase: Long, n: Int): Boolean =
      shift >= 0 && shift <= 62 && phase >= 0 && BigInt(phase) < (BigInt(1) << shift) &&
        BigInt(slope).abs * (n - 1) <= (BigInt(1) << 62)

    /** `v(j) − floor((slope·j + phase) / 2^shift)`, wrapped, less its minimum. */
    def window(values: Array[Long], from: Int, until: Int, slope: Long, shift: Int, phase: Long): Window = {
      val d = Array.tabulate(until - from)(j => wrap(BigInt(values(from + j)) - ((BigInt(slope) * j + phase) >> shift)))
      val anchor = d.min
      val deltas = d.map(_ - anchor)
      Window(anchor.toLong, deltas.max.bitLength, deltas.map(_.toLong))
    }
  }
}
