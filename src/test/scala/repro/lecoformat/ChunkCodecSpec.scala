package repro.lecoformat

import org.scalacheck.Prop
import org.scalatest.funsuite.AnyFunSuite
import repro.core.ByteLayoutSpec
import repro.core.baseline.DictCodec

class ChunkCodecSpec extends AnyFunSuite {

  private val r = new scala.util.Random(11)
  private val cases: Seq[(String, Array[Long])] = Seq(
    "sorted"     -> Array.tabulate(5000)(i => 100L * i + r.nextInt(40)),
    "lowcard"    -> Array.fill(5000)(r.nextInt(10).toLong),
    "unique"     -> Array.tabulate(5000)(i => i * 982451653L % 1000000007L),
    "negative"   -> Array.tabulate(5000)(i => -1000000L + 37L * i),
    "tiny"       -> Array(5L),
  )

  for ((name, values) <- cases;
       (encName, enc) <- Seq("Default" -> Encoding.Default, "FOR" -> Encoding.For,
                             "LeCo" -> Encoding.LecoFix);
       zstd <- Seq(false, true)) {
    test(s"$encName(zstd=$zstd) chunk roundtrips $name") {
      val bytes = ChunkCodec.encode(values, enc, 512, zstd)
      val chunk = ChunkCodec.decode(bytes)
      assert(chunk.n == values.length)
      assert(chunk.decodeAll().sameElements(values))
      Seq(0, values.length / 2, values.length - 1).foreach(i => assert(chunk.get(i) == values(i)))
    }
  }

  test("a chunk is its header, then the codec's toBytes, zstd-compressed at level 3 under zstd") {
    for ((name, values) <- cases; enc <- Seq(Encoding.Default, Encoding.For, Encoding.LecoFix); zstd <- Seq(false, true)) {
      val body = enc.compress(values, 512).toBytes
      val head = java.nio.ByteBuffer.allocate(ChunkCodec.HeaderBytes)
        .put(enc.tag.toByte).put((if (zstd) 1 else 0).toByte).putInt(body.length).array()
      val want = head ++ (if (zstd) com.github.luben.zstd.Zstd.compress(body, 3) else body)
      assert(ChunkCodec.encode(values, enc, 512, zstd).sameElements(want), s"$enc(zstd=$zstd) $name")
    }
  }

  test("Default picks dictionary for low-cardinality, plain for unique") {
    val low = ChunkCodec.encode(Array.fill(1000)(3L), Encoding.Default, 512, zstd = false)
    val uni = ChunkCodec.encode(Array.tabulate(1000)(_ * 7919L), Encoding.Default, 512, zstd = false)
    assert(ChunkCodec.decode(low).isInstanceOf[DictCodec.DictCompressed])
    assert(ChunkCodec.decode(uni).isInstanceOf[DictCodec.PlainCompressed])
    assert(low.length < uni.length)
  }

  test("plain width auto-selection shrinks small-valued chunks") {
    val small = ChunkCodec.encode(Array.fill(1000)(5L), Encoding.Default, 512, zstd = false)
    // dictionary wins here; force plain via unique small values
    val smallPlain = DictCodec.plain(Array.tabulate(1000)(_.toLong)).toBytes
    val bigPlain   = DictCodec.plain(Array.tabulate(1000)(i => (1L << 40) + i)).toBytes
    assert(smallPlain.length < bigPlain.length)
    assert(small.length > 0)
  }

  test("zstd shrinks compressible chunks and survives roundtrip") {
    val values = Array.tabulate(20000)(i => (i / 100).toLong)
    val plain = ChunkCodec.encode(values, Encoding.Default, 512, zstd = false)
    val z     = ChunkCodec.encode(values, Encoding.Default, 512, zstd = true)
    assert(z.length < plain.length)
    assert(ChunkCodec.decode(z).decodeAll().sameElements(values))
  }

  test("gather equals pointwise get") {
    val values = Array.tabulate(3000)(i => 7L * i)
    val chunk = ChunkCodec.decode(ChunkCodec.encode(values, Encoding.LecoFix, 256, zstd = false))
    val pos = Array(0, 5, 99, 2999)
    assert(chunk.gather(pos).sameElements(pos.map(values(_).toLong)))
  }

  test("RangePredicate semantics") {
    val p = RangePredicate(10, 20)
    assert(p.test(10) && p.test(20) && !p.test(9) && !p.test(21))
    assert(p.mayMatch(0, 10) && p.mayMatch(20, 50) && !p.mayMatch(21, 100) && !p.mayMatch(0, 9))
  }

  test("TimeOfDayPredicate semantics and nextMatch") {
    val p = TimeOfDayPredicate(86400, 100, 200)
    assert(p.test(86400 + 100) && p.test(150) && !p.test(200) && !p.test(99))
    assert(p.nextMatch(0) == 100)
    assert(p.nextMatch(150) == 150)
    assert(p.nextMatch(300) == 86400 + 100)
    assert(p.mayMatch(0, 100))
    assert(!p.mayMatch(200, 86400 + 99))
    assert(p.mayMatch(200, 86400 * 3)) // interval spans a whole period
  }

  test("scan with pruning equals brute-force scan (FOR and LeCo)") {
    val rr = new scala.util.Random(13)
    // nearly sorted timestamps across several 'days'
    var t = 0L
    val values = Array.fill(50_000) { t += rr.nextInt(10); t }
    val pred = TimeOfDayPredicate(10_000, 2000, 2500)
    val brute = values.zipWithIndex.collect { case (v, i) if pred.test(v) => i }
    for (enc <- Seq(Encoding.For, Encoding.LecoFix, Encoding.Default)) {
      val chunk = ChunkCodec.decode(ChunkCodec.encode(values, enc, 1024, zstd = false))
      assert(chunk.scan(pred).sameElements(brute), s"enc $enc")
    }
  }

  test("LeCo in-partition jump pruning is exercised and correct on ranges") {
    var t = 0L
    val rr = new scala.util.Random(14)
    val values = Array.fill(50_000) { t += 1 + rr.nextInt(4); t }
    val pred = RangePredicate(t / 2, t / 2 + 1000)
    val chunk = ChunkCodec.decode(ChunkCodec.encode(values, Encoding.LecoFix, 1024, zstd = false))
    val brute = values.zipWithIndex.collect { case (v, i) if pred.test(v) => i }
    assert(chunk.scan(pred).sameElements(brute))
  }

  for (enc <- Seq(Encoding.Default, Encoding.For, Encoding.LecoFix); zstd <- Seq(false, true))
    test(s"$enc(zstd=$zstd) chunk decodes to the codec's in-memory form, sized by sizeBytes") {
      import ByteLayoutSpec._
      check(Prop.forAll(values) { vals =>
        val c      = enc.compress(vals, PartSize)
        val bytes  = ChunkCodec.encode(vals, enc, PartSize, zstd)
        val rawLen = java.nio.ByteBuffer.wrap(bytes).getInt(2)
        rawLen == c.sizeBytes && (zstd || bytes.length == ChunkCodec.HeaderBytes + rawLen) &&
          sameAs(ChunkCodec.decode(bytes), c)
      })
    }

  private val sample = ChunkCodec.encode(Array.tabulate(3000)(i => 7L * i + i % 5), Encoding.LecoFix, 256, zstd = false)

  /** `bytes` with the header's body length set to the bytes that follow. */
  private def withRawLen(bytes: Array[Byte]): Array[Byte] = {
    java.nio.ByteBuffer.wrap(bytes).putInt(2, bytes.length - ChunkCodec.HeaderBytes)
    bytes
  }

  private def corruption(bytes: Array[Byte]): String = {
    val e = intercept[IllegalStateException](ChunkCodec.decode(bytes, "chunk ts/7"))
    assert(e.getMessage.contains("chunk ts/7"), e.getMessage)
    e.getMessage
  }

  test("corrupt chunk: an unknown encoding tag is named") {
    val b = sample.clone(); b(0) = 9
    assert(corruption(b).contains("unknown encoding tag 9"))
  }

  test("corrupt chunk: a zstd flag other than 0 or 1 is rejected") {
    val b = sample.clone(); b(1) = 7
    assert(corruption(b).contains("zstd flag 7"))
  }

  test("corrupt chunk: a truncated body is rejected") {
    val cut = java.util.Arrays.copyOf(sample, sample.length - 10)
    assert(corruption(cut).contains(s"header says ${sample.length - ChunkCodec.HeaderBytes} body bytes"))
    assert(corruption(withRawLen(cut)).endsWith("truncated"))
    val z = ChunkCodec.encode(Array.tabulate(3000)(i => 7L * i), Encoding.For, 256, zstd = true)
    assert(corruption(java.util.Arrays.copyOf(z, z.length - 4)).contains("zstd"))
  }

  test("corrupt chunk: bytes left over after the codec's reader are rejected") {
    val long = java.util.Arrays.copyOf(sample, sample.length + 16)
    assert(corruption(long).contains("16 stray bytes"))
    assert(corruption(withRawLen(long)).contains("16 bytes left over after the LecoFix body"))
  }

  test("corrupt chunk: a LeCo partition of slope 0 that carries a model word is rejected") {
    // 3000 equal values: every partition is flat, and the first one's width byte follows the layout prefix
    val flat = ChunkCodec.encode(Array.fill(3000)(42L), Encoding.LecoFix, 256, zstd = false)
    val flags = ChunkCodec.HeaderBytes + 8 + 12
    val b = java.nio.ByteBuffer.allocate(flat.length + 8)
      .put(flat, 0, flags).put((flat(flags) | 0x80).toByte).putLong(0L).put(flat, flags + 1, flat.length - flags - 1)
      .array()
    val msg = corruption(withRawLen(b))
    assert(msg.startsWith("corrupt leco chunk ts/7"), msg)
    assert(msg.endsWith("a model word of slope 0: a flat partition carries none"), msg)
  }

  test("corrupt chunk: a FOR or LeCo body whose n disagrees with its last partition is rejected") {
    for (enc <- Seq(Encoding.For, Encoding.LecoFix)) {
      // 3000 values in partitions of 256: the last, partition 11, holds 184
      val b = ChunkCodec.encode(Array.tabulate(3000)(i => 7L * i + i % 5), enc, 256, zstd = false)
      java.nio.ByteBuffer.wrap(b).putInt(ChunkCodec.HeaderBytes, 2999)
      val msg = corruption(b)
      assert(msg.startsWith("corrupt leco chunk ts/7") && msg.endsWith("partition 11 holds 184 values, expected 183"), msg)
    }
  }
}
