package repro.lecoformat

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.ByteLayoutSpec

/** Soundness of the remainder window's and the range's pruning over signed
  * 64-bit values. Spark pushes every `col % m` window and every range to the
  * reader, so `nextMatch` and `mayMatch` decide which rows of a query are
  * never looked at; each is checked here against a brute-force `test`.
  */
class TimeOfDayPredicateSpec extends AnyFunSuite {
  import TimeOfDayPredicateSpec._

  test("nextMatch(a) is the first match at or after a: none in [a, nextMatch(a)) matches") {
    ByteLayoutSpec.check(Prop.forAll(Gen.oneOf(windows, ranges(Array.emptyLongArray)), anchors) { (p, as) =>
      as.forall { a =>
        val next = p.nextMatch(a)
        val before = Iterator.iterate(a)(_ + 1).take(Span).takeWhile(x => x >= a && x < next)
        next >= a && !before.exists(p.test) && (p.test(next) || next == Long.MaxValue) &&
          // the end of a gap too long to walk
          Iterator.iterate(next - 1)(_ - 1).take(Span).takeWhile(x => x >= a && x < next).forall(!p.test(_))
      }
    })
  }

  test("mayMatch(lo, hi) holds whenever some value in [lo, hi] matches") {
    ByteLayoutSpec.check(Prop.forAll(windows, anchors, Gen.choose(0, 300)) { (p, as, len) =>
      val exists = math.max(p.t1, 1 - p.mod) < math.min(p.t2, p.mod) // some remainder lies in the window
      (!exists || p.mayMatch(Long.MinValue, Long.MaxValue)) && as.forall { lo =>
        val hi = plus(lo, len)
        val brute = Iterator.iterate(lo)(_ + 1).take(len + 1).takeWhile(_ >= lo).exists(p.test)
        // exact but at the top of the range, where the search saturates
        p.mayMatch(lo, hi) == brute || (!brute && hi == Long.MaxValue)
      }
    })
  }

  test("scan with a window equals a brute-force test in every encoding, across zero") {
    val predicatesOver = for {
      vals <- almostSorted
      p    <- Gen.oneOf(windows.filter(_.mod <= 100_000), ranges(vals))
    } yield (p, vals)
    ByteLayoutSpec.check(Prop.forAll(predicatesOver, Gen.oneOf(16, 64, 512)) {
      case ((p, vals), partSize) =>
        val brute = vals.indices.filter(i => p.test(vals(i)))
        Seq(Encoding.Default, Encoding.For, Encoding.LecoFix).forall { enc =>
          ChunkCodec.decode(ChunkCodec.encode(vals, enc, partSize, zstd = false)).scan(p).toSeq == brute
        }
    })
  }
}

object TimeOfDayPredicateSpec {
  /** How far the properties walk value by value. */
  val Span = 4096

  def plus(a: Long, d: Long): Long =
    if (d > 0 && a > Long.MaxValue - d) Long.MaxValue
    else if (d < 0 && a < Long.MinValue - d) Long.MinValue
    else a + d

  /** Small moduli, whose gaps the properties walk whole, and large ones up to `Long.MaxValue`. */
  val mods: Gen[Long] = Gen.frequency(
    4 -> Gen.choose(1L, 100L), 3 -> Gen.choose(101L, 3000L), 1 -> Gen.const(86400L),
    1 -> Gen.choose(1L, Long.MaxValue), 1 -> Gen.oneOf(Long.MaxValue, Long.MaxValue - 1, 1L << 62))

  /** `t1 < t2` in and around the remainder range `(-mod, mod)`, negative bounds included. */
  val windows: Gen[TimeOfDayPredicate] = for {
    mod    <- mods
    bound   = Gen.frequency(6 -> Gen.choose(-mod, mod), 2 -> Gen.choose(-3L, 3L),
                            1 -> Gen.oneOf(Long.MinValue, Long.MaxValue, mod, -mod, mod - 1, 1 - mod))
    a      <- bound
    b      <- Gen.oneOf(bound, Gen.choose(-50L, 50L).map(plus(a, _)))
    if a != b
  } yield TimeOfDayPredicate(mod, math.min(a, b), math.max(a, b))

  /** A value near 0, near ±`mod` multiples and window edges, near the ends of the range, or anywhere. */
  val anchor: Gen[Long] = Gen.zip(
    Gen.frequency(2 -> Gen.const(0L), 3 -> Gen.choose(-(1L << 20), 1L << 20).map(_ * 86400L),
                  2 -> Gen.oneOf(Long.MinValue, Long.MaxValue), 2 -> Gen.long),
    Gen.frequency(3 -> Gen.choose(-70L, 70L), 1 -> Gen.choose(-200_000L, 200_000L)))
    .map { case (base, d) => plus(base, d) }

  val anchors: Gen[Seq[Long]] = Gen.listOfN(20, anchor)

  /** `[a, b]` between two bounds, or a short range from one; empty when
    * `a > b`. A bound is an anchor or lies next to one of `vals`.
    */
  def ranges(vals: Array[Long]): Gen[RangePredicate] = {
    def near = Gen.oneOf(vals.toIndexedSeq).flatMap(v => Gen.choose(-3L, 3L).map(plus(v, _)))
    val bound = if (vals.isEmpty) anchor else Gen.frequency(1 -> anchor, 3 -> near)
    for {
      a <- bound
      b <- Gen.frequency(3 -> bound, 2 -> Gen.choose(-50L, 3000L).map(plus(a, _)))
    } yield RangePredicate(a, b)
  }

  /** Almost-sorted values within ±2^36 (the LeCo-fix bound of `LecoReaderSpec`),
    * often crossing zero: steps of up to `step`, then adjacent swaps.
    */
  val almostSorted: Gen[Array[Long]] = for {
    n     <- Gen.choose(0, 3000)
    step  <- Gen.oneOf(1, 5, 50, 1000)
    start <- Gen.oneOf(Gen.choose(-(1L << 36), 1L << 36), Gen.choose(-n.toLong * step, 0L))
    seed  <- Gen.long
  } yield {
    val r = new scala.util.Random(seed)
    var t = start
    val vals = Array.fill(n) { t += r.nextInt(step + 1); t }
    for (_ <- 0 until n / 20) {
      val i = r.nextInt(n - 1)
      val v = vals(i); vals(i) = vals(i + 1); vals(i + 1) = v
    }
    vals
  }
}
