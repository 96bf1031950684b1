package repro.experiments

import java.nio.ByteBuffer
import repro.core.str._
import repro.data.Datasets

/** §4.6 (Fig 13): LeCo string extension (exact base and power-of-two base)
  * vs simplified FSST with offset-delta block sizes 0/20/40/60/80/100,
  * on email / hex / word.
  */
object StringBench {

  final case class Measurement(dataset: String, scheme: String,
                               ratio: Double, accessNs: Double)

  def schemes: Seq[StringCodec] =
    Seq(new LecoStringCodec(64, powerOfTwoBase = false),
        new LecoStringCodec(64, powerOfTwoBase = true)) ++
      Seq(0, 20, 40, 60, 80, 100).map(b => new FsstCodec(b))

  def measure(name: String, values: Array[String], codec: StringCodec,
              probes: Int = 50_000): Measurement = {
    val raw = values.iterator.map(_.length.toLong).sum
    val c   = codec.compress(values)
    // roundtrip check doubles as warmup
    val dec = c.decompressAll()
    var i = 0
    while (i < values.length) {
      require(dec(i) == values(i), s"${codec.name} roundtrip mismatch on $name at $i: '${dec(i)}' vs '${values(i)}'")
      i += 1
    }
    c match { // LeCo-str has a byte layout: its bytes must read back to the input too
      case l: LecoStringCompressed =>
        val back = LecoStringCompressed.read(ByteBuffer.wrap(l.toBytes)).decompressAll()
        require(back.sameElements(values), s"${codec.name} bytes do not read back to $name")
      case _ =>
    }
    val count = math.min(probes, values.length)
    // nanoseconds of `count` random `get`s, probe sequence `pass`
    def probePass(pass: Int): Long = {
      var x = 0xBEEF1234L + pass
      var acc = 0
      val t0 = System.nanoTime()
      var k = 0
      while (k < count) {
        x ^= x << 13; x ^= x >>> 7; x ^= x << 17
        acc += c.get(((x & Long.MaxValue) % values.length).toInt).length
        k += 1
      }
      val ns = System.nanoTime() - t0
      MicroBench.sink += acc
      ns
    }
    // one untimed pass warms the random-access path (JIT), so the first
    // scheme of a JVM is not timed cold; then the min of three timed
    // passes: JVM random-access timings at this scale are dominated by
    // JIT/GC noise otherwise
    probePass(0)
    val best = (0 until 3).map(probePass).min
    Measurement(name, codec.name, c.sizeBytes.toDouble / raw, best.toDouble / count)
  }

  def run(scaleDiv: Int = 1): Seq[Measurement] =
    for {
      ds <- Datasets.stringDatasets(scaleDiv)
      codec <- schemes
    } yield measure(ds.name, ds.values, codec)

  def format(ms: Seq[Measurement]): String = {
    val sb = new StringBuilder
    sb ++= f"${"dataset"}%-8s ${"scheme"}%-16s ${"ratio"}%8s ${"access(ns)"}%11s\n"
    for (m <- ms)
      sb ++= f"${m.dataset}%-8s ${m.scheme}%-16s ${m.ratio * 100}%7.2f%% ${m.accessNs}%11.1f\n"
    sb.toString
  }
}
