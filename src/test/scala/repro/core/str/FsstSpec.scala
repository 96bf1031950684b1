package repro.core.str

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Datasets

class FsstSpec extends AnyFunSuite {

  private def roundtrip(codec: FsstCodec, values: Array[String]): Unit = {
    val c = codec.compress(values)
    val dec = c.decompressAll()
    values.indices.foreach(i => assert(dec(i) == values(i), s"at $i"))
    val r = new scala.util.Random(3)
    (1 to math.min(40, values.length)).foreach { _ =>
      val i = r.nextInt(values.length)
      assert(c.get(i) == values(i))
    }
  }

  for (block <- Seq(0, 20, 60)) {
    test(s"FSST(block=$block) roundtrips repetitive strings") {
      roundtrip(new FsstCodec(block), Array.fill(500)("the-quick-brown-fox"))
    }
    test(s"FSST(block=$block) roundtrips word dataset") {
      roundtrip(new FsstCodec(block), Datasets.words(1500))
    }
  }

  test("roundtrips strings with no repeated substrings (all escapes)") {
    roundtrip(new FsstCodec(0), Array("qx", "zw", "mv", "kt"))
  }

  test("roundtrips the empty string") {
    roundtrip(new FsstCodec(0), Array("", "a", "", "bb"))
  }

  test("a character above U+00FF is rejected, naming it and its string; Latin-1 round-trips") {
    for ((s, c) <- Seq("€" -> '€', "xΩ" -> 'Ω')) {
      val msg = intercept[IllegalArgumentException](new FsstCodec(0).compress(Array("ab", s))).getMessage
      assert(msg.contains(s"'$c'") && msg.contains("\"" + s + "\""), msg)
    }
    roundtrip(new FsstCodec(0), Array("café", "ÿ", "naïve"))
  }

  test("trained table contains high-gain substrings") {
    val table = FsstCodec.train(Array.fill(200)("abcabcabc"))
    assert(table.nonEmpty)
    assert(table.exists(s => s.contains("abc") || s.contains("bca") || s.contains("cab")))
  }

  test("symbol table is capped at maxSymbols") {
    val r = new scala.util.Random(5)
    val values = Array.fill(2000)((1 to 10).map(_ => ('a' + r.nextInt(26)).toChar).mkString)
    assert(FsstCodec.train(values).length <= FsstCodec.MaxSymbols)
  }

  test("compresses repetitive data well below raw") {
    val values = Array.fill(2000)("prefix-shared-long-string-body")
    val codec = new FsstCodec(0)
    assert(codec.ratio(values) < 0.4, s"${codec.ratio(values)}")
  }

  test("larger offset blocks shrink the offset overhead") {
    val values = Datasets.words(3000)
    val s0  = new FsstCodec(0).compress(values).sizeBytes
    val s60 = new FsstCodec(60).compress(values).sizeBytes
    assert(s60 < s0, s"block-60 $s60 >= block-0 $s0")
  }

  test("offset-block access still decodes correct strings mid-block") {
    val values = Datasets.words(500)
    val c = new FsstCodec(20).compress(values)
    Seq(0, 7, 19, 20, 21, 259, 499).foreach(i => assert(c.get(i) == values(i)))
  }
}
