package repro.core

import org.scalatest.funsuite.AnyFunSuite

class LecoCodecSpec extends AnyFunSuite {

  test("partition encode stores only non-negative deltas") {
    val r = new scala.util.Random(1)
    val vals = Array.tabulate(1000)(i => 3L * i + r.nextInt(40))
    val p = LecoPartition.encode(vals, 0, vals.length)
    (0 until 1000).foreach { j =>
      val d = vals(j) - p.predict(j)
      assert(d >= 0 && BitPack.bitsFor(d) <= p.width)
    }
  }

  test("a prediction the folded bias moves by one still gets a delta that fits") {
    // θ0 + θ1·5 is 2.0 before folding δmin = -1 into θ0 and 0.99999… after
    val vals = Array[Long](2, 3, 2, 7, 0, 8, 4, 4, 3, 5, 6)
    val p = LecoPartition.encode(vals, 0, vals.length)
    val out = new Array[Long](vals.length)
    p.decodeInto(out, 0)
    assert(out.sameElements(vals))
    assert(vals.indices.forall(j => p.get(j) == vals(j)))
  }

  test("accumulation decode equals direct decode (correction list works)") {
    // long partitions + irrational-ish slope provoke floating point slips
    val vals = Array.tabulate(100_000)(i => (i * math.Pi * 1000).toLong)
    val p = LecoPartition.encode(vals, 0, vals.length)
    val out = new Array[Long](vals.length)
    p.decodeInto(out, 0)
    assert(out.sameElements(vals))
  }

  test("correction list is small relative to the partition") {
    val vals = Array.tabulate(100_000)(i => (i * math.Pi * 1000).toLong)
    val p = LecoPartition.encode(vals, 0, vals.length)
    assert(p.corrections.length < vals.length / 100,
           s"${p.corrections.length} corrections for ${vals.length} values")
  }

  test("width-0 partition (exact model) has empty payload") {
    val p = LecoPartition.encode(Array.tabulate(100)(i => 5L * i), 0, 100)
    assert(p.width == 0)
    assert(p.words.isEmpty)
    assert(p.payloadBytes == 0)
  }

  test("LeCo-fix partition boundaries are honored") {
    val vals = Array.tabulate(1000)(i => if (i < 500) 2L * i else 1_000_000L - 3L * i)
    val c = new LecoFixCodec(500).compress(vals)
    assert(c.parts.length == 2)
    assert(c.parts(0).width == 0 && c.parts(1).width == 0)
    assert(c.decompressAll().sameElements(vals))
  }

  test("LeCo-fix last ragged partition handled") {
    val vals = Array.tabulate(1003)(i => 9L * i)
    val c = new LecoFixCodec(100).compress(vals)
    assert(c.parts.length == 11)
    assert(c.parts.last.len == 3)
    assert(c.get(1002) == vals(1002))
  }

  test("LeCo-var partitionOf lower-bound search") {
    val vals = Array.tabulate(1000)(i => (i / 100).toLong * 100_000 + i % 100)
    val c = new LecoVarCodec(0.05).compress(vals)
    (0 until 1000 by 37).foreach { i =>
      val k = c.partitionOf(i)
      assert(c.starts(k) <= i)
      assert(k == c.starts.length - 1 || c.starts(k + 1) > i)
    }
  }

  test("LeCo-var on movieid-like sawtooth beats LeCo-fix") {
    val r = new scala.util.Random(3)
    val vals = new Array[Long](20_000)
    var i = 0
    while (i < vals.length) {
      val run = math.min(vals.length - i, 100 + r.nextInt(300))
      var v = r.nextInt(1000).toLong
      (0 until run).foreach { k => v += 1 + r.nextInt(60); vals(i + k) = v }
      i += run
    }
    val fix = new LecoFixCodec(0).compress(vals).sizeBytes
    val vr  = new LecoVarCodec(0.1).compress(vals).sizeBytes
    assert(vr <= fix, s"var $vr vs fix $fix")
  }

  test("sizeBytes is the length of the serialized bytes") {
    val clean = new LecoFixCodec(256).compress(Array.tabulate(512)(i => 2L * i + 1))
    assert(clean.toBytes.length == clean.sizeBytes)
    assert(clean.modelBytes == 2L * Codec.LinearHeaderBytes)
    // corrections add their count and positions to the partition's bytes
    val slipping = new LecoFixCodec(50_000).compress(Array.tabulate(100_000)(i => (i * math.Pi * 1000).toLong))
    assert(slipping.parts.exists(_.corrections.nonEmpty))
    assert(slipping.toBytes.length == slipping.sizeBytes)
  }

  test("compression is effective on a nearly linear sequence") {
    val r = new scala.util.Random(4)
    val vals = Array.tabulate(100_000)(i => 1000L * i + r.nextInt(16))
    val c = new LecoFixCodec(0).compress(vals)
    val ratio = c.sizeBytes.toDouble / (vals.length * 8L)
    assert(ratio < 0.15, s"ratio $ratio") // ~4 delta bits of 64
  }

  test("get matches decompressAll at every position (spot grid)") {
    val r = new scala.util.Random(5)
    val vals = Array.fill(10_000)(r.nextLong() % 1_000_000_000L)
    val c = new LecoFixCodec(777).compress(vals)
    val all = c.decompressAll()
    (0 until 10_000 by 111).foreach(i => assert(c.get(i) == all(i)))
  }

  test("empty corrections on short partitions") {
    val vals = Array.tabulate(64)(i => 3L * i + 1)
    val c = new LecoFixCodec(64).compress(vals)
    assert(c.parts.head.corrections.isEmpty)
  }
}
