package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.Assertions
import org.scalatest.funsuite.AnyFunSuite

/** The fit, window and encode loops carry the position as a `Double` counter.
  * These properties check them bit for bit against [[LinearLoopsSpec.IntPosition]],
  * a copy of the same loops written with an `Int` position converted per
  * value, on lengths from 1 to 65,536 and values that are smooth, noisy,
  * near ±2^52 and falling.
  */
class LinearLoopsSpec extends AnyFunSuite {
  import LinearLoopsSpec._

  test("fitLinear and linearDeltaBits have the bits of the Int-position loops") {
    check(Prop.forAllNoShrink(partition) { case Part(vs, from, until) =>
      val (fit, ref) = (Regressor.fitLinear(vs, from, until), IntPosition.fitLinear(vs, from, until))
      fit.anchor == ref.anchor && bits(fit.theta1) == bits(ref.theta1) && fit.bitWidth == ref.bitWidth &&
        Regressor.linearDeltaBits(vs, from, until) == ref.bitWidth
    })
  }

  test("LecoPartition.encode has the theta bits, width, words and corrections of the Int-position loop") {
    check(Prop.forAllNoShrink(partition) { case Part(vs, from, until) =>
      val (a, b) = (LecoPartition.encode(vs, from, until), IntPosition.encode(vs, from, until))
      a.anchor == b.anchor && bits(a.theta1) == bits(b.theta1) && a.linear && a.width == b.width &&
        a.len == b.len && a.words.sameElements(b.words) && a.corrections.isEmpty
    })
  }

  test("LecoFixCodec.costAt matches the cost summed from Int-position fits") {
    check(Prop.forAllNoShrink(partition, Gen.oneOf(16, 48, 64, 1024)) { case (Part(vs, _, _), l) =>
      val ref = Partitioner.fixedCost(vs, l) { (s, e) =>
        Codec.LinearHeaderBytes + BitPack.payloadBytes(e - s, IntPosition.fitLinear(vs, s, e).bitWidth)
      }
      LecoFixCodec.costAt(vs, l) == ref
    })
  }
}

object LinearLoopsSpec {
  def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

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

  /** The fit, window and encode loops with the position as an `Int` that is
    * converted to a `Double` at every value.
    */
  object IntPosition {
    def fitLinear(values: Array[Long], from: Int, until: Int): Fit = {
      val n = until - from
      val sumX  = n.toDouble * (n - 1) / 2.0
      val sumXX = (n - 1).toDouble * n * (2L * n - 1) / 6.0
      var sumY  = 0.0
      var sumXY = 0.0
      var i = 0
      while (i < n) {
        val y = values(from + i).toDouble
        sumY += y; sumXY += i * y
        i += 1
      }
      val denom  = n * sumXX - sumX * sumX
      val theta1 = if (denom == 0) 0.0 else (n * sumXY - sumX * sumY) / denom
      var dMin = Long.MaxValue; var dMax = Long.MinValue
      i = 0
      while (i < n) {
        val d = values(from + i) - math.floor(theta1 * i).toLong
        if (d < dMin) dMin = d
        if (d > dMax) dMax = d
        i += 1
      }
      Fit(dMin, theta1, BitPack.bitsFor(dMax - dMin))
    }

    def encode(values: Array[Long], from: Int, until: Int): LecoPartition = {
      val fit   = fitLinear(values, from, until)
      val n     = until - from
      val words = new Array[Long](BitPack.wordsFor(n, fit.bitWidth))
      var j = 0
      while (j < n) {
        BitPack.write(words, j.toLong * fit.bitWidth, fit.bitWidth, values(from + j) - fit.predict(j))
        j += 1
      }
      LecoPartition(fit.anchor, fit.theta1, linear = true, fit.bitWidth, n, words)
    }
  }
}
