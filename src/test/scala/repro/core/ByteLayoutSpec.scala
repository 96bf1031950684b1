package repro.core

import java.nio.ByteBuffer
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.Assertions
import org.scalatest.funsuite.AnyFunSuite
import repro.core.baseline._
import repro.core.pla.AngleCodec
import repro.lecoformat.{ChunkCodec, Encoding, RangePredicate}

/** Property tests of the codecs over inputs that span the whole signed
  * range: each codec and each `leco` chunk encoding returns its input
  * exactly, and the bytes `writeTo` writes read back into the same
  * representation, with `sizeBytes` their length. No input is rejected;
  * Elias-Fano, which takes sorted inputs only, gets each input sorted.
  */
class ByteLayoutSpec extends AnyFunSuite {
  import ByteLayoutSpec._

  /** Each codec's name, what it makes of an input to take it, its compress
    * and its reader.
    */
  private val codecs: Seq[(String, Array[Long] => Array[Long], Array[Long] => CompressedInts, ByteBuffer => CompressedInts)] = Seq(
    ("FOR", identity, new ForCodec(PartSize).compress(_), FixedPartitions.read(_)(LecoPartition.read)),
    ("Delta-fix", identity, new DeltaFixCodec(PartSize).compress(_), FixedPartitions.read(_)(DeltaPartition.read)),
    ("Delta-var", identity, new DeltaVarCodec(0.1).compress(_), VariablePartitions.read(_)(DeltaPartition.read)),
    ("LeCo-fix", identity, new LecoFixCodec(PartSize).compress(_), FixedPartitions.read(_)(LecoPartition.read)),
    ("LeCo-var", identity, new LecoVarCodec(0.1).compress(_), VariablePartitions.read(_)(LecoPartition.read)),
    ("LeCo-angle", identity, new AngleCodec(8).compress(_), VariablePartitions.read(_)(LecoPartition.read)),
    ("Elias-Fano", _.sorted, new EliasFanoCodec(PartSize).compress(_), FixedPartitions.read(_)(EfPartition.read)),
    ("rANS", identity, new RansCodec(8, PartSize).compress(_), RansCompressed.read),
    ("Default", identity, DictCodec.compress(_), DictCodec.read),
  )

  for ((name, input, compress, read) <- codecs)
    test(s"$name: its bytes read back into the in-memory form, sizeBytes is their length") {
      check(Prop.forAll(values.map(input)) { vals =>
        val c     = compress(vals)
        val bytes = c.toBytes
        val buf   = ByteBuffer.wrap(bytes)
        val back  = read(buf)
        bytes.length == c.sizeBytes && !buf.hasRemaining && sameAs(back, c) &&
          back.toBytes.sameElements(bytes)
      })
    }

  /** Every codec, and every encoding through a `leco` chunk with zstd off and on. */
  private val oracles: Seq[(String, Array[Long] => Array[Long], Array[Long] => CompressedInts)] =
    codecs.map { case (name, input, compress, _) => (name, input, compress) } ++
      (for (enc <- Seq(Encoding.Default, Encoding.For, Encoding.LecoFix); zstd <- Seq(false, true))
        yield (s"$enc chunk (zstd=$zstd)", identity[Array[Long]] _,
               (vals: Array[Long]) => ChunkCodec.decode(ChunkCodec.encode(vals, enc, PartSize, zstd))))

  for ((name, input, compress) <- oracles)
    test(s"$name: decompressAll, get and scan return the input") {
      check(Prop.forAll(values.map(input).flatMap(vs => rangeIn(vs).map(vs -> _))) { case (vals, pred) =>
        returnsInput(compress(vals), vals, pred)
      })
    }

  private val layoutInput = Array.tabulate(2 * PartSize + 2)(i => 3L * i + i % 7)

  /** The error of `name`'s reader on its bytes of `layoutInput` with the
    * layout prefix's `n` set to `n`.
    */
  private def layoutError(name: String, n: Int): String = {
    val (_, input, compress, read) = codecs.find(_._1 == name).get
    intercept[IllegalArgumentException](read(ByteBuffer.wrap(compress(input(layoutInput)).toBytes).putInt(0, n))).getMessage
  }

  test("a fixed-length layout whose n disagrees with a partition's length is rejected") {
    val n = layoutInput.length // two full partitions and one of 2 values
    for (name <- Seq("FOR", "Delta-fix", "LeCo-fix", "Elias-Fano"); (edited, want) <- Seq(n - 1 -> 1, n + 1 -> 3))
      assert(layoutError(name, edited).endsWith(s"partition 2 holds 2 values, expected $want"), name)
  }

  test("a variable-length layout whose n is not its partitions' total is rejected") {
    val n = layoutInput.length
    for (name <- Seq("Delta-var", "LeCo-var", "LeCo-angle"); edited <- Seq(n - 1, n + 1))
      assert(layoutError(name, edited).endsWith(s"partitions hold $n values, expected $edited"), name)
  }

  test("rANS bytes with an edited n, width, block size, frequency or block length are rejected") {
    val bytes = new RansCodec(8, PartSize).compress(Array.tabulate(4 * PartSize - 56)(i => (i % 13).toLong)).toBytes
    def error(edit: ByteBuffer => Unit): String = {
      val buf = ByteBuffer.wrap(bytes.clone())
      edit(buf)
      intercept[IllegalArgumentException](RansCompressed.read(buf)).getMessage
    }
    val freq0  = 9 // [n:i32][bpv:u8][blockValues:i32], then freq(0)
    val count0 = freq0 + 256 * 2 // block 0's [count:i32][len:i32]
    val len0   = count0 + 4
    val count3 = (0 until 3).foldLeft(count0)((at, _) => at + 8 + ByteBuffer.wrap(bytes).getInt(at + 4))
    // an n wrong by a block or by less: the blocks' counts sum to 200
    for (n <- Seq(2 * PartSize, 4 * PartSize + 1, 199, 195, 193, 201, 220))
      assert(error(_.putInt(0, n)).endsWith(s"rANS blocks hold 200 values, expected $n"), n)
    for (count <- Seq(0, PartSize + 1))
      assert(error(_.putInt(count0, count)).endsWith(s"rANS block 0 holds $count values, not 1..$PartSize"))
    assert(error(_.putInt(count0, PartSize - 1)).endsWith(s"rANS block 0 is not the last but holds fewer than $PartSize values"))
    // counts that agree with n, but the last block decodes to its own 8 values
    for (count <- Seq(7, 9))
      assert(error(_.putInt(0, 3 * PartSize + count).putInt(count3, count))
        .endsWith(s"rANS block 3 does not decode to exactly $count values"), count)
    for (bpv <- Seq(0, 9)) assert(error(_.put(4, bpv.toByte)).endsWith(s"rANS width $bpv bytes per value, not 1..8"))
    assert(error(_.putInt(5, 0)).endsWith("rANS block of 0 values"))
    assert(error(b => b.putShort(freq0, (b.getShort(freq0) + 1).toShort))
      .endsWith(s"rANS frequencies sum to ${Rans.ProbScale + 1}, not ${Rans.ProbScale}"))
    assert(error(_.putInt(len0, bytes.length)).endsWith(
      s"rANS block 0 of ${bytes.length} bytes runs past the buffer's end (${bytes.length - len0 - 4} bytes left)"))
    assert(error(_.putInt(len0, 3)).endsWith("rANS block 0 of 3 bytes cannot hold its 4-byte state"))
  }

  test("rANS blocks of one symbol, which decode to any count, reject an edited n") {
    val bytes = new RansCodec(8, PartSize).compress(new Array[Long](200)).toBytes // all bytes are 0
    val buf = ByteBuffer.wrap(bytes).putInt(0, 220)
    assert(intercept[IllegalArgumentException](RansCompressed.read(buf)).getMessage
      .endsWith("rANS blocks hold 200 values, expected 220"))
  }

  test("every codec returns 2 3 2 7 0 8 4 4 3 5 6, where folding δmin into a Double θ0 moved a prediction by one") {
    val vals = Array[Long](2, 3, 2, 7, 0, 8, 4, 4, 3, 5, 6)
    for ((name, input, compress) <- oracles) {
      val in = input(vals)
      assert(returnsInput(compress(in), in, RangePredicate(3, 6)), name)
    }
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

  def check(prop: Prop, cases: Int = 200): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(cases).withInitialSeed(Seed(2024L)), prop)
    Assertions.assert(res.passed, Pretty.pretty(res))
  }
}
