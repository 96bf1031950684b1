package repro.experiments

import repro.core._
import repro.core.baseline._
import repro.data.{Datasets, IntDataset}

/** The §4.3 integer microbenchmark (Fig 10 rows 1–3) and Table 1
  * (compression throughput). Pure JVM, single thread — the paper's setup.
  */
object MicroBench {

  final case class Measurement(dataset: String, scheme: String,
                               ratio: Double, modelRatio: Double,
                               accessNs: Double, decompGBps: Double,
                               compGBps: Double, rawBytes: Long)

  val SchemeNames: Seq[String] =
    Seq("FOR", "Elias-Fano", "Delta-fix", "Delta-var", "LeCo-fix", "LeCo-var", "rANS")

  def codecFor(scheme: String, ds: IntDataset): Option[IntCodec] = scheme match {
    case "FOR"        => Some(new ForCodec(0))
    case "Elias-Fano" => if (ds.fullySorted) Some(new EliasFanoCodec(0)) else None
    case "Delta-fix"  => Some(new DeltaFixCodec(0))
    case "Delta-var"  => Some(new DeltaVarCodec(0.1))
    case "LeCo-fix"   => Some(new LecoFixCodec(0))
    case "LeCo-var"   => Some(new LecoVarCodec(0.1))
    case "rANS"       => Some(new RansCodec(ds.rawBytesPerValue))
  }

  /** Deterministic pseudo-random position stream (xorshift). */
  private def positions(n: Int, count: Int, seed: Long): Array[Int] = {
    var x = seed | 1
    Array.fill(count) {
      x ^= x << 13; x ^= x >>> 7; x ^= x << 17
      ((x & Long.MaxValue) % n).toInt
    }
  }

  def nanosOf(f: => Unit): Long = { val t0 = System.nanoTime(); f; System.nanoTime() - t0 }

  /** Runs per timed throughput figure (compress, decompress), of which the median counts. */
  val TimedRuns = 7

  /** The median of `runs` timings of `ns`, after as many untimed runs, so
    * that the JIT has compiled the path on this input before it is timed.
    */
  def warmMedianOf(runs: Int)(ns: => Long): Long = {
    (1 to runs).foreach(_ => ns)
    Seq.fill(runs)(ns).sorted.apply(runs / 2)
  }

  @volatile var sink: Long = 0 // defeat dead-code elimination

  def measure(ds: IntDataset, scheme: String, accessCount: Int = 200_000): Option[Measurement] =
    codecFor(scheme, ds).map { codec =>
      val raw = ds.values.length.toLong * ds.rawBytesPerValue
      val compressed = codec.compress(ds.values)
      // verify the round trip
      val decoded = compressed.decompressAll()
      require(java.util.Arrays.equals(decoded, ds.values),
              s"$scheme roundtrip mismatch on ${ds.name}")
      val compNs = warmMedianOf(TimedRuns)(nanosOf { sink += codec.compress(ds.values).n })
      val decompNs = warmMedianOf(TimedRuns)(nanosOf { sink += compressed.decompressAll()(ds.values.length - 1) })
      // rANS/Delta random access is slow; cap the probe count for them
      val probes =
        if (scheme == "rANS" || scheme.startsWith("Delta")) math.min(accessCount, 2000)
        else math.min(accessCount, ds.values.length)
      val pos = positions(ds.values.length, probes, 0xC0FFEE)
      // one untimed pass over the same positions warms the random-access path
      def pass(): Long = {
        var acc = 0L
        var i = 0
        while (i < pos.length) { acc += compressed.get(pos(i)); i += 1 }
        acc
      }
      sink += pass()
      val accessNs = nanosOf { sink += pass() }
      Measurement(ds.name, scheme,
        ratio = compressed.sizeBytes.toDouble / raw,
        modelRatio = compressed.modelBytes.toDouble / raw,
        accessNs = accessNs.toDouble / probes,
        decompGBps = raw.toDouble / decompNs, // bytes/ns == GB/s
        compGBps = raw.toDouble / compNs,
        rawBytes = raw)
    }

  def run(scaleDiv: Int = 200, accessCount: Int = 200_000): Seq[Measurement] =
    for {
      ds <- Datasets.integerDatasets(scaleDiv)
      scheme <- SchemeNames
      m <- measure(ds, scheme, accessCount)
    } yield m

  /** Table 1: raw-size-weighted average compression throughput per scheme. */
  def table1(ms: Seq[Measurement]): Seq[(String, Double)] =
    SchemeNames.filterNot(_ == "rANS").map { s =>
      val rows = ms.filter(_.scheme == s)
      val w    = rows.map(_.rawBytes.toDouble).sum
      (s, rows.map(m => m.compGBps * m.rawBytes).sum / w)
    }

  def format(ms: Seq[Measurement]): String = {
    val sb = new StringBuilder
    sb ++= f"${"dataset"}%-12s ${"scheme"}%-11s ${"ratio"}%8s ${"model"}%7s ${"access(ns)"}%11s ${"decomp(GB/s)"}%13s ${"comp(GB/s)"}%11s\n"
    for (m <- ms)
      sb ++= f"${m.dataset}%-12s ${m.scheme}%-11s ${m.ratio * 100}%7.2f%% ${m.modelRatio * 100}%6.2f%% ${m.accessNs}%11.1f ${m.decompGBps}%13.3f ${m.compGBps}%11.3f\n"
    sb.toString
  }
}
