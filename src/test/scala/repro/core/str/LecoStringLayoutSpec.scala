package repro.core.str

import java.nio.ByteBuffer
import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.ByteLayoutSpec.check

/** Property tests of LeCo-str: every column returns its input through
  * `decompressAll`, `get` and a `read` of its bytes, whose length is
  * `sizeBytes`; corrupt bytes are rejected with an error that names the
  * fault.
  */
class LecoStringLayoutSpec extends AnyFunSuite {
  import LecoStringLayoutSpec._

  for (pow2 <- Seq(false, true))
    test(s"LeCo-str(pow2=$pow2): decompressAll, get and read(toBytes) return the input, sizeBytes is the bytes' length") {
      check(Prop.forAll(columns, Gen.choose(1, 128)) { (vals, partSize) =>
        val c     = new LecoStringCodec(partSize, pow2).compress(vals)
        val bytes = c.toBytes
        val buf   = ByteBuffer.wrap(bytes)
        val back  = LecoStringCompressed.read(buf)
        bytes.length == c.sizeBytes && !buf.hasRemaining && c.decompressAll().sameElements(vals) &&
          vals.indices.forall(i => c.get(i) == vals(i)) && back.decompressAll().sameElements(vals) &&
          back.toBytes.sameElements(bytes)
      })
    }

  test("suffixes of 64 characters take several limbs in both bases") {
    val vals = Array.tabulate(40)(i => ((i % 10).toString * (64 - i)))
    for (pow2 <- Seq(false, true)) {
      val c = new LecoStringCodec(64, pow2).compress(vals)
      assert(c.parts.head.limbs.length >= 3, s"pow2=$pow2")
      assert(c.decompressAll().sameElements(vals))
    }
  }

  private def error(bytes: Array[Byte]): String =
    intercept[IllegalArgumentException](LecoStringCompressed.read(ByteBuffer.wrap(bytes))).getMessage

  test("every truncation of the bytes is rejected") {
    val bytes = new LecoStringCodec(8, powerOfTwoBase = true).compress(Array.tabulate(20)(i => s"key${i * 37}")).toBytes
    for (cut <- 0 until bytes.length)
      assert(error(bytes.take(cut)).matches("LeCo-str bytes are truncated|.* cannot fit in \\d+ bytes"), s"cut at $cut")
  }

  test("a limb whose length differs from its partition's is rejected") {
    val c = new LecoStringCodec(8).compress(Array.tabulate(20)(i => s"key${i * 37}"))
    val p = c.parts.head
    val limb0 = LecoStringCompressed.PrefixBytes + p.sizeBytes - p.limbs.iterator.map(_.sizeBytes).sum
    val bytes = ByteBuffer.wrap(c.toBytes).putInt(limb0.toInt, 9).array()
    assert(error(bytes) == "requirement failed: limb 0 holds 9 values, its partition 8")
  }

  test("an alphabet out of order is rejected") {
    val bytes = new LecoStringCodec(8).compress(Array("ab", "ba")).toBytes
    // [n][partSize][pow2], the empty prefix's count, the alphabet's count 2, then 'a' 'b'
    assert(bytes(10) == 2 && bytes(11) == 'a' && bytes(12) == 'b')
    bytes(11) = 'b'; bytes(12) = 'a'
    assert(error(bytes) == "requirement failed: alphabet out of order: 'b' before 'a'")
  }
}

object LecoStringLayoutSpec {
  /** One letter, two, the digits, printable ASCII, or up to 40 characters of 256 and above. */
  val alphabet: Gen[IndexedSeq[Char]] = Gen.oneOf(
    Gen.choose(Char.MinValue, Char.MaxValue).map(IndexedSeq(_)),
    Gen.const("ab".toIndexedSeq),
    Gen.const(('0' to '9').toIndexedSeq),
    Gen.const((' ' to '~').toIndexedSeq),
    Gen.choose(1, 40).flatMap(k => Gen.listOfN(k, Gen.choose(256.toChar, Char.MaxValue)).map(_.toIndexedSeq)))

  /** Up to 300 strings of 0 to 64 characters over one alphabet, after a
    * shared prefix of up to 20 of its characters, sorted or not.
    */
  val columns: Gen[Array[String]] = for {
    letters <- alphabet
    prefix  <- Gen.choose(0, 20).flatMap(Gen.listOfN(_, Gen.oneOf(letters)))
    n       <- Gen.choose(0, 300)
    vals    <- Gen.listOfN(n, Gen.choose(0, 64).flatMap(Gen.listOfN(_, Gen.oneOf(letters))))
    sorted  <- Gen.oneOf(false, true)
  } yield {
    val strings = vals.map(s => (prefix ++ s).mkString).toArray
    if (sorted) strings.sorted else strings
  }
}
