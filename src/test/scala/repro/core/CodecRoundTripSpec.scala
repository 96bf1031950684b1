package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.baseline._
import repro.core.pla.AngleCodec

/** Parameterized roundtrip matrix: every integer codec on every distribution
  * must decompress to exactly the input and answer random accesses
  * correctly. This is the backbone correctness net for §4's seven schemes.
  */
class CodecRoundTripSpec extends AnyFunSuite {

  private def rnd(seed: Int) = new scala.util.Random(seed)

  val distributions: Seq[(String, Array[Long])] = {
    val r = rnd(42)
    Seq(
      "clean-line"        -> Array.tabulate(4096)(i => 7L * i + 3),
      "noisy-line"        -> Array.tabulate(4096)(i => 7L * i + r.nextInt(50)),
      "constant"          -> Array.fill(4096)(123L),
      "runs"              -> Array.tabulate(4096)(i => (i / 100).toLong * 5),
      "sorted-random"     -> Array.fill(4096)(r.nextInt(1_000_000).toLong).sorted,
      "unsorted-random"   -> Array.fill(4096)(r.nextInt(1_000_000).toLong),
      "negative-values"   -> Array.tabulate(4096)(i => -2_000_000L + 950L * i + r.nextInt(30)),
      "piecewise"         -> Array.tabulate(4096)(i => (i / 512).toLong * 1_000_000 + (i % 512) * 3),
      "big-64bit"         -> Array.tabulate(4096)(i => (1L << 50) + 1_000_000L * i + r.nextInt(1000)),
      "sawtooth"          -> Array.tabulate(4096)(i => (i % 97).toLong * 13),
      "tiny-3"            -> Array(5L, 9L, 2L),
      "single"            -> Array(77L),
    )
  }

  def codecs(sorted: Boolean): Seq[IntCodec] = Seq(
    new ForCodec(256),
    new ForCodec(0),
    new DeltaFixCodec(256),
    new DeltaFixCodec(0),
    new DeltaVarCodec(0.1),
    new LecoFixCodec(256),
    new LecoFixCodec(0),
    new LecoVarCodec(0.1),
    new LecoVarCodec(0.0),
    new AngleCodec(8),
    new AngleCodec(4),
    new RansCodec(8, 1024),
  ) ++ (if (sorted) Seq(new EliasFanoCodec(256), new EliasFanoCodec(0)) else Nil)

  for ((distName, values) <- distributions) {
    val sorted = EliasFanoCodec.isSorted(values)
    for (codec <- codecs(sorted)) {
      val label = codec match {
        case c: ForCodec      => s"FOR(${c.partitionSize})"
        case c: DeltaFixCodec => s"Delta-fix(${c.partitionSize})"
        case c: DeltaVarCodec => s"Delta-var(${c.tau})"
        case c: LecoFixCodec  => s"LeCo-fix(${c.partitionSize})"
        case c: LecoVarCodec  => s"LeCo-var(${c.tau})"
        case c: AngleCodec    => s"LeCo-angle(${c.epsBits})"
        case c: EliasFanoCodec=> s"EF(${c.partitionSize})"
        case _                => codec.name
      }

      test(s"$label roundtrips $distName") {
        val c = codec.compress(values)
        assert(c.n == values.length)
        assert(c.decompressAll().sameElements(values))
      }

      test(s"$label random access on $distName") {
        val c = codec.compress(values)
        val r = rnd(distName.hashCode)
        val probes = math.min(64, values.length)
        (1 to probes).foreach { _ =>
          val i = r.nextInt(values.length)
          assert(c.get(i) == values(i), s"position $i")
        }
        // boundary positions
        assert(c.get(0) == values(0))
        assert(c.get(values.length - 1) == values.last)
      }
    }
  }

  test("every codec reports a positive compressed size") {
    val values = Array.tabulate(1000)(i => 3L * i)
    codecs(true).foreach { c =>
      assert(c.compress(values).sizeBytes > 0, c.name)
    }
  }

  test("every codec round-trips the empty input") {
    codecs(true).foreach { codec =>
      val c = codec.compress(Array.empty[Long])
      assert(c.n == 0 && c.decompressAll().isEmpty && c.sizeBytes >= 0, codec.name)
    }
  }

  test("FOR is never better than LeCo-fix at equal partition size") {
    val r = rnd(9)
    val values = Array.tabulate(8192)(i => 13L * i + r.nextInt(500))
    val forSize  = new ForCodec(512).compress(values).sizeBytes
    val lecoSize = new LecoFixCodec(512).compress(values).sizeBytes
    assert(lecoSize <= forSize)
  }
}
