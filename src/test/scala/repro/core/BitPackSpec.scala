package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.ByteLayoutSpec.check
import repro.core.baseline.DeltaPartition

class BitPackSpec extends AnyFunSuite {
  import BitPackSpec._

  test("bitsFor(0) == 0") { assert(BitPack.bitsFor(0) == 0) }
  test("bitsFor(1) == 1") { assert(BitPack.bitsFor(1) == 1) }
  test("bitsFor(2) == 2") { assert(BitPack.bitsFor(2) == 2) }
  test("bitsFor(255) == 8") { assert(BitPack.bitsFor(255) == 8) }
  test("bitsFor(256) == 9") { assert(BitPack.bitsFor(256) == 9) }
  test("bitsFor(Long.MaxValue) == 63") { assert(BitPack.bitsFor(Long.MaxValue) == 63) }
  test("bitsFor reads a negative value as unsigned") {
    assert(BitPack.bitsFor(-1) == 64 && BitPack.bitsFor(Long.MinValue) == 64)
  }

  test("wordsFor exact boundaries") {
    assert(BitPack.wordsFor(0, 7) == 0)
    assert(BitPack.wordsFor(64, 1) == 1)
    assert(BitPack.wordsFor(65, 1) == 2)
    assert(BitPack.wordsFor(8, 8) == 1)
    assert(BitPack.wordsFor(9, 8) == 2)
    assert(BitPack.wordsFor(3, 64) == 3)
  }

  test("width 0 stores nothing and reads zeros") {
    val w = BitPack.pack(Array(0L, 0L, 0L), 0, 3, 0)
    assert(w.length == 0)
    // readAt with width 0 must be 0 regardless
    assert(BitPack.readAt(Array(0xffffffffffffffffL), 5, 0) == 0)
  }

  for (b <- Seq(1, 3, 7, 8, 12, 13, 31, 32, 33, 63, 64)) {
    test(s"pack/read roundtrip at width $b") {
      val r = new scala.util.Random(b)
      val max = if (b == 64) Long.MaxValue else (1L << (b - 1)) // keep values in range
      val vals = Array.fill(257)(math.abs(r.nextLong()) % math.max(1, max))
      val words = BitPack.pack(vals, 0, vals.length, b)
      vals.indices.foreach(i => assert(BitPack.read(words, i, b) == vals(i), s"at $i"))
      assert(BitPack.unpackAll(words, vals.length, b).sameElements(vals))
    }
  }

  test("pack rejects out-of-range values") {
    intercept[IllegalArgumentException](BitPack.pack(Array(8L), 0, 1, 3))
  }

  test("cross-word boundary values survive") {
    // width 60: values straddle word boundaries constantly
    val vals = Array.tabulate(100)(i => (1L << 59) + i)
    val words = BitPack.pack(vals, 0, vals.length, 60)
    vals.indices.foreach(i => assert(BitPack.read(words, i, 60) == vals(i)))
  }

  test("randomized widths and lengths roundtrip (200 cases)") {
    val r = new scala.util.Random(12345)
    for (_ <- 1 to 200) {
      val b = 1 + r.nextInt(64)
      val n = 1 + r.nextInt(500)
      val mask = if (b == 64) -1L else (1L << b) - 1
      val safe = Array.fill(n)(r.nextLong() & mask & Long.MaxValue)
      val words = BitPack.pack(safe, 0, n, b)
      assert(BitPack.unpackAll(words, n, b).sameElements(safe), s"b=$b n=$n")
    }
  }

  test("the Writer's words are the reference packing and read back through read and Reader, at every width 0-64") {
    for (b <- 0 to 64) check(Prop.forAll(boundaryLengths(b), Gen.long) { (n, seed) =>
      val r = new scala.util.Random(seed)
      val mask = if (b == 64) -1L else (1L << b) - 1
      val vals = Array.fill(n)(r.nextLong() & mask)
      val out = new BitPack.Writer(new Array[Long](BitPack.wordsFor(n, b)), b)
      vals.foreach(out.put)
      val words = out.finish()
      val in = new BitPack.Reader(words, b)
      words.sameElements(referencePack(vals, b)) &&
        vals.indices.forall(i => BitPack.read(words, i, b) == vals(i)) && vals.forall(_ == in.next())
    }, casesPerWidth)
  }

  // The streaming reader of every sequential decode against BitPack.read's
  // random access: at every width, on payloads that end
  // exactly on a word boundary (a reader that loads the word after the last
  // one fails there) and on one partition above 65,536 values.

  test("unpackAll equals BitPack.read at every index, at every width 0-64") {
    for (b <- 0 to 64) check(Prop.forAll(lengths(b, 0), Gen.long) { (n, seed) =>
      val words = randomWords(BitPack.wordsFor(n, b), seed)
      val all = BitPack.unpackAll(words, n, b)
      (0 until n).forall(i => all(i) == BitPack.read(words, i, b))
    }, casesPerWidth)
  }

  test("a LeCo partition's and a FOR frame's decodeInto equal get at every position, at every width 0-64") {
    for (b <- 0 to 64) check(Prop.forAll(lengths(b, 0), Gen.long, Gen.oneOf(true, false)) { (len, seed, flat) =>
      val r = new scala.util.Random(seed)
      val words = randomWords(BitPack.wordsFor(len, b), r.nextLong())
      val p =
        if (flat) LecoPartition(r.nextLong(), 0L, 0, 0L, b, len, words)
        else { // a random model within the fixed-point limits of `len` values
          val limit = LineFit.slopeLimit(len)
          val slope = r.nextLong() % (limit + 1) match { case 0 => 1L; case m => m }
          val shift = r.nextInt(63)
          val phase = r.nextLong() & ((1L << shift) - 1) & -LecoPartition.phaseStep(shift)
          LecoPartition(r.nextLong(), slope, shift, phase, b, len, words)
        }
      decodesAsGets(len, p.decodeInto, p.get, 0 until len)
    }, casesPerWidth)
  }

  test("a Delta partition's decodeInto equals get at every position, at every width 0-64") {
    for (b <- 0 to 64) check(Prop.forAll(lengths(b, 1), Gen.long) { (len, seed) =>
      val r = new scala.util.Random(seed)
      val p = DeltaPartition(r.nextLong(), b, len, randomWords(BitPack.wordsFor(len - 1, b), r.nextLong()))
      // both walk the reader, so the prefix sums of BitPack.read are the reference
      val sums = new Array[Long](len)
      sums(0) = p.first
      for (k <- 1 until len) { val z = BitPack.read(p.words, k - 1, b); sums(k) = sums(k - 1) + ((z >>> 1) ^ -(z & 1L)) }
      // get walks the prefix, so a partition above 65,536 values is checked at 200 positions and its last
      val at = if (len <= 4096) 0 until len else Seq.fill(200)(r.nextInt(len)) :+ (len - 1)
      decodesAsGets(len, p.decodeInto, p.get, at) && decodesAsGets(len, p.decodeInto, sums(_), 0 until len)
    }, casesPerWidth)
  }
}

object BitPackSpec {
  val casesPerWidth = 30

  /** Lengths of a payload of `b`-bit values after `skip` leading values
    * that are not packed: any up to 300, one whose payload ends exactly on
    * a word boundary, or one above 65,536.
    */
  def lengths(b: Int, skip: Int): Gen[Int] = {
    val perWords = 64 >> Integer.numberOfTrailingZeros(b | 64) // 64 / gcd(b, 64): values that fill whole words
    Gen.frequency(
      4 -> Gen.choose(math.max(1, skip), 300),
      4 -> Gen.choose(1, 5).map(_ * perWords + skip),
      1 -> Gen.choose(65537, 70000))
  }

  /** Lengths whose payload of `b`-bit values ends exactly on a word
    * boundary, where a writer must store a full word and carry nothing, and
    * one value past it.
    */
  def boundaryLengths(b: Int): Gen[Int] = {
    val perWords = 64 >> Integer.numberOfTrailingZeros(b | 64)
    Gen.choose(1, 5).flatMap(k => Gen.oneOf(k * perWords, k * perWords + 1))
  }

  /** The reference packing, independent of [[BitPack.Writer]]: each value
    * ORed into the words at bit offset `b·i`, one at a time.
    */
  def referencePack(values: Array[Long], b: Int): Array[Long] = {
    val words = new Array[Long](BitPack.wordsFor(values.length, b))
    if (b > 0) for (i <- values.indices) {
      val bitPos = i.toLong * b
      val w      = (bitPos >>> 6).toInt
      val off    = (bitPos & 63).toInt
      words(w) |= values(i) << off
      if (off + b > 64) words(w + 1) |= values(i) >>> (64 - off)
    }
    words
  }

  def randomWords(count: Int, seed: Long): Array[Long] = {
    val r = new scala.util.Random(seed)
    Array.fill(count)(r.nextLong())
  }

  /** `decodeInto` at an offset leaves the values `get` gives at `positions`, and touches nothing around them. */
  def decodesAsGets(len: Int, decodeInto: (Array[Long], Int) => Unit, get: Int => Long, positions: Seq[Int]): Boolean = {
    val out = Array.fill(len + 2)(42L)
    decodeInto(out, 1)
    out(0) == 42L && out(len + 1) == 42L && positions.forall(j => out(1 + j) == get(j))
  }
}
