package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.util.{Failure, Success, Try}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.Assertions
import org.scalatest.funsuite.AnyFunSuite

/** The fit, refold and encode loops carry the position as a `Double` counter.
  * These properties check them bit for bit against [[LinearLoopsSpec.IntPosition]],
  * a copy of the same loops written with an `Int` position converted per
  * value, on lengths from 1 to 65,536 and values that are smooth, noisy,
  * near ±2^52 and falling.
  */
class LinearLoopsSpec extends AnyFunSuite {
  import LinearLoopsSpec._

  private def sameFit(a: Fit, b: Fit): Boolean =
    bits(a.model.theta0) == bits(b.model.theta0) && bits(a.model.theta1) == bits(b.model.theta1) &&
      a.bitWidth == b.bitWidth

  test("fitLinear and linearDeltaBits have the bits of the Int-position loops") {
    check(Prop.forAllNoShrink(partition) { case Part(vs, from, until) =>
      val ref = IntPosition.fitLinear(vs, from, until)
      sameFit(Regressor.fitLinear(vs, from, until), ref) &&
        Regressor.linearDeltaBits(vs, from, until) == ref.bitWidth
    })
  }

  test("refit of any line has the bits of the Int-position loop") {
    val lines = for {
      p     <- partition
      shift <- Gen.choose(-1e6, 1e6)
      tilt  <- Gen.choose(-2.0, 2.0)
    } yield {
      val m = IntPosition.fitLinear(p.values, p.from, p.until).model
      (p, LinearModel(m.theta0 + shift, m.theta1 + tilt))
    }
    check(Prop.forAllNoShrink(lines) { case (Part(vs, from, until), m) =>
      sameOutcome(Regressor.refit(m, vs, from, until), IntPosition.refit(m, vs, from, until))(sameFit)
    })
  }

  test("LecoPartition.encode has the theta bits, width, words and corrections of the Int-position loop") {
    check(Prop.forAllNoShrink(partition) { case Part(vs, from, until) =>
      sameOutcome(LecoPartition.encode(vs, from, until), IntPosition.encode(vs, from, until)) { (a, b) =>
        bits(a.theta0) == bits(b.theta0) && bits(a.theta1) == bits(b.theta1) && a.width == b.width &&
          a.len == b.len && a.words.sameElements(b.words) && a.corrections.sameElements(b.corrections)
      }
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

  /** Both return results that are `same`, or both throw the same message. */
  def sameOutcome[A](a: => A, b: => A)(same: (A, A) => Boolean): Boolean = (Try(a), Try(b)) match {
    case (Success(x), Success(y)) => same(x, y)
    case (Failure(x), Failure(y)) => x.getClass == y.getClass && x.getMessage == y.getMessage
    case (x, y) => throw new AssertionError(s"outcomes differ: $x vs $y")
  }

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

  /** Checks without shrinking: a shrunk partition size of 0 would never end
    * `fixedCost`, and the counterexample's generator values say enough.
    */
  def check(prop: Prop): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(150).withInitialSeed(Seed(7L)), prop)
    Assertions.assert(res.passed, Pretty.pretty(res))
  }

  /** The fit, refold and encode loops with the position as an `Int` that is
    * converted to a `Double` at every value and θ read through the model.
    */
  object IntPosition {
    def fitLinear(values: Array[Long], from: Int, until: Int): Fit = {
      val n = until - from
      if (n == 1) return Fit(LinearModel(values(from).toDouble, 0.0), 0)
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
      val theta0 = (sumY - theta1 * sumX) / n
      refit(LinearModel(theta0, theta1), values, from, until)
    }

    def refit(m: LinearModel, values: Array[Long], from: Int, until: Int): Fit = {
      var dMin = Long.MaxValue; var dMax = Long.MinValue
      var i = from
      while (i < until) {
        val d = values(i) - m.predict(i - from)
        if (d < dMin) dMin = d
        if (d > dMax) dMax = d
        i += 1
      }
      Fit(LinearModel(m.theta0 + dMin, m.theta1), BitPack.bitsFor(dMax - dMin))
    }

    def encode(values: Array[Long], from: Int, until: Int): LecoPartition =
      encodeFit(fitLinear(values, from, until), values, from, until, refits = 3)

    private def encodeFit(fit: Fit, values: Array[Long], from: Int, until: Int, refits: Int): LecoPartition = {
      val m        = fit.model
      val n        = until - from
      val maxDelta = if (fit.bitWidth >= 63) Long.MaxValue else (1L << fit.bitWidth) - 1
      val words    = new Array[Long](BitPack.wordsFor(n, fit.bitWidth))
      val corr     = ArrayBuffer[Int]()
      var acc      = m.theta0
      var fits     = true
      var j = 0
      while (j < n && fits) {
        val direct = m.predict(j)
        if (math.floor(acc).toLong != direct) { corr += j; acc = m.theta0 + m.theta1 * j }
        val delta = values(from + j) - direct
        fits = delta >= 0 && delta <= maxDelta
        if (fits) BitPack.write(words, j.toLong * fit.bitWidth, fit.bitWidth, delta)
        acc += m.theta1
        j += 1
      }
      if (fits) LecoPartition(m.theta0, m.theta1, fit.bitWidth, n, words, corr.toArray)
      else {
        require(refits > 0, s"no linear model encodes values($from until $until) exactly")
        encodeFit(refit(m, values, from, until), values, from, until, refits - 1)
      }
    }
  }
}
