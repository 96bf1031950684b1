package repro.core

import java.nio.ByteBuffer
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.Assertions
import org.scalatest.funsuite.AnyFunSuite
import repro.core.baseline._
import repro.lecoformat.{ChunkCodec, Encoding, RangePredicate}

/** Property tests of the codecs over inputs that span the whole signed
  * range: each codec and each `leco` chunk encoding returns its input
  * exactly, and the bytes `writeTo` writes read back into the same
  * representation, with `sizeBytes` their length. No input is rejected.
  */
class ByteLayoutSpec extends AnyFunSuite {
  import ByteLayoutSpec._

  private val codecs: Seq[(String, Array[Long] => ByteLayout, ByteBuffer => CompressedInts)] = Seq(
    ("FOR", new ForCodec(PartSize).compress(_), LecoFixCompressed.read),
    ("Delta-fix", new DeltaFixCodec(PartSize).compress(_), DeltaFixCompressed.read),
    ("Delta-var", new DeltaVarCodec(0.1).compress(_), DeltaVarCompressed.read),
    ("LeCo-fix", new LecoFixCodec(PartSize).compress(_), LecoFixCompressed.read),
    ("LeCo-var", new LecoVarCodec(0.1).compress(_), LecoVarCompressed.read),
    ("Default", DictCodec.compress(_), DictCodec.read),
  )

  for ((name, compress, read) <- codecs)
    test(s"$name: its bytes read back into the in-memory form, sizeBytes is their length") {
      check(Prop.forAll(values) { vals =>
        val c     = compress(vals)
        val bytes = c.toBytes
        val buf   = ByteBuffer.wrap(bytes)
        val back  = read(buf)
        bytes.length == c.sizeBytes && !buf.hasRemaining && sameAs(back, c) &&
          back.asInstanceOf[ByteLayout].toBytes.sameElements(bytes)
      })
    }

  /** Every codec, and every encoding through a `leco` chunk with zstd off and on. */
  private val oracles: Seq[(String, Array[Long] => CompressedInts)] =
    codecs.map { case (name, compress, _) => name -> compress } ++
      (for (enc <- Seq(Encoding.Default, Encoding.For, Encoding.LecoFix); zstd <- Seq(false, true))
        yield s"$enc chunk (zstd=$zstd)" -> ((vals: Array[Long]) => ChunkCodec.decode(ChunkCodec.encode(vals, enc, PartSize, zstd))))

  for ((name, compress) <- oracles)
    test(s"$name: decompressAll, get and scan return the input") {
      check(Prop.forAll(values.flatMap(vs => rangeIn(vs).map(vs -> _))) { case (vals, pred) =>
        returnsInput(compress(vals), vals, pred)
      })
    }

  test("every codec returns 2 3 2 7 0 8 4 4 3 5 6, where folding δmin into a Double θ0 moved a prediction by one") {
    val vals = Array[Long](2, 3, 2, 7, 0, 8, 4, 4, 3, 5, 6)
    for ((name, compress) <- oracles) assert(returnsInput(compress(vals), vals, RangePredicate(3, 6)), name)
  }
}

object ByteLayoutSpec {
  val PartSize = 64

  /** Lengths 0, 1 and around the partition size, or anything up to four partitions. */
  val length: Gen[Int] =
    Gen.oneOf(Gen.oneOf(0, 1, PartSize - 1, PartSize, PartSize + 1), Gen.choose(2, 4 * PartSize))

  private def arrayOf(n: Int, g: Gen[Long]): Gen[Array[Long]] = Gen.listOfN(n, g).map(_.toArray)

  /** Full-range random values, smooth values offset by up to 2^62, runs of
    * the extremes, and small values.
    */
  val values: Gen[Array[Long]] = length.flatMap { n =>
    val smooth = for {
      offset <- Gen.choose(-(1L << 62), 1L << 62)
      slope  <- Gen.choose(-100000L, 100000L)
      noise  <- arrayOf(n, Gen.choose(0L, 1000L))
    } yield Array.tabulate(n)(i => offset + slope * i + noise(i))
    val extremes = Gen.listOf(Gen.zip(Gen.oneOf(Long.MinValue, Long.MaxValue, 0L, -1L), Gen.choose(1, 40)))
      .map(_.flatMap { case (v, run) => Seq.fill(run)(v) }.take(n))
      .map(runs => Array.tabulate(n)(i => if (i < runs.length) runs(i) else Long.MaxValue))
    Gen.oneOf(arrayOf(n, Gen.long), smooth, extremes, arrayOf(n, Gen.choose(-100L, 100L)))
  }

  /** `[a, b]` with each bound an input value or any value. */
  def rangeIn(vals: Array[Long]): Gen[RangePredicate] = {
    val bound = if (vals.isEmpty) Gen.long else Gen.oneOf(Gen.long, Gen.oneOf(vals.toIndexedSeq))
    Gen.zip(bound, bound).map { case (a, b) => RangePredicate(math.min(a, b), math.max(a, b)) }
  }

  /** `c` decodes to `vals`, `get` returns each of them, and `scan(pred)`
    * finds the positions a test of every value finds.
    */
  def returnsInput(c: CompressedInts, vals: Array[Long], pred: RangePredicate): Boolean =
    c.n == vals.length && c.decompressAll().sameElements(vals) && vals.indices.forall(i => c.get(i) == vals(i)) &&
      c.scan(pred).sameElements(vals.indices.filter(i => pred.test(vals(i))))

  /** Same length, same `decompressAll`, same `get` at every position. */
  def sameAs(a: CompressedInts, b: CompressedInts): Boolean =
    a.n == b.n && a.decompressAll().sameElements(b.decompressAll()) && (0 until a.n).forall(i => a.get(i) == b.get(i))

  def check(prop: Prop): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(Seed(2024L)), prop)
    Assertions.assert(res.passed, Pretty.pretty(res))
  }
}
