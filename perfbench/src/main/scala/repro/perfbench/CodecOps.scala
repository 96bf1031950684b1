package repro.perfbench

import java.util.Arrays
import scala.util.Random
import repro.core._
import repro.core.baseline._

/** The benchmark's calls into the codec layer (`repro.core`,
  * `repro.core.baseline`), each wrapped in a span, with the checks that
  * prove the answers right.
  */
object CodecOps {

  /** The five schemes of `codec_micro`, keyed by their metric name. A `0`
    * partition size asks the fixed-size codecs for their automatic search.
    */
  val Schemes: Seq[(String, IntCodec)] = Seq(
    "for"       -> new ForCodec(0),
    "delta_fix" -> new DeltaFixCodec(0),
    "delta_var" -> new DeltaVarCodec(),
    "leco_fix"  -> new LecoFixCodec(0),
    "leco_var"  -> new LecoVarCodec(),
  )

  /** LeCo-fix partition size used by the `leco` file format and the probes. */
  val FilePartSize = 1024

  def positions(n: Int, count: Int, seed: Long): Array[Int] = {
    val r = new Random(seed)
    Array.fill(count)(r.nextInt(n))
  }

  /** One codec pass: `compress`, `decompressAll`, then `get` at `pos`.
    * Returns the nanoseconds of those three calls and whether every value
    * round-trips and every `get` is right.
    */
  def pass(key: String, codec: IntCodec, values: Array[Long], pos: Array[Int], tr: Trace): (Long, Boolean) = {
    val got = new Array[Long](pos.length)
    val t0  = System.nanoTime()
    val c   = tr.span(s"codec.$key.compress", values.length)(codec.compress(values))
    val out = tr.span(s"codec.$key.decompress", values.length)(c.decompressAll())
    tr.span(s"codec.$key.get", pos.length) {
      var i = 0
      while (i < pos.length) { got(i) = c.get(pos(i)); i += 1 }
    }
    val ns = System.nanoTime() - t0
    tr.count(s"codec.$key.accounted_bytes", c.sizeBytes)
    tr.count(s"codec.$key.values", values.length)
    (ns, Arrays.equals(out, values) && pos.indices.forall(i => got(i) == values(pos(i))))
  }

  /** Times the sub-layers of LeCo-fix on one column, at the file format's
    * partition size: model fit, partition encode, raw bit unpack and pack at
    * the widths the column really uses, model decode, random access, and the
    * two partitioners. Returns whether decode, pack and `get` are exact.
    */
  def layerProbe(values: Array[Long], pos: Array[Int], tr: Trace): Boolean = {
    val n = values.length
    val p = FilePartSize
    val nParts = (n + p - 1) / p
    def end(k: Int) = math.min((k + 1) * p, n)

    var widthSum = 0
    tr.span("regressor.fit", n) {
      var k = 0
      while (k < nParts) { widthSum += Regressor.fitLinear(values, k * p, end(k)).bitWidth; k += 1 }
    }
    val parts = tr.span("leco.encode", n)(Array.tabulate(nParts)(k => LecoPartition.encode(values, k * p, end(k))))
    val deltas = new Array[Long](n)
    tr.span("bitpack.unpack", n) {
      var k = 0
      while (k < nParts) {
        val part = parts(k); val base = k * p
        var j = 0
        while (j < part.len) { deltas(base + j) = BitPack.read(part.words, j, part.width); j += 1 }
        k += 1
      }
    }
    val packed = tr.span("bitpack.pack", n)(Array.tabulate(nParts)(k => BitPack.pack(deltas, k * p, end(k), parts(k).width)))
    val out = new Array[Long](n)
    tr.span("leco.decode", n) {
      var k = 0
      while (k < nParts) { parts(k).decodeInto(out, k * p); k += 1 }
    }
    val fix = new LecoFixCompressed(n, p, parts)
    val got = new Array[Long](pos.length)
    tr.span("leco.get", pos.length) {
      var i = 0
      while (i < pos.length) { got(i) = fix.get(pos(i)); i += 1 }
    }
    tr.count("leco.corrections", parts.map(_.corrections.length.toLong).sum)
    tr.count("leco.values", n)
    tr.span("partitioner.fixed_search")(Partitioner.searchFixedSize(values, LecoFixCodec.costAt))
    tr.span("partitioner.variable")(Partitioner.variable(values, Partitioner.LinearMode, 0.1))

    widthSum == parts.map(_.width).sum &&
      Arrays.equals(out, values) &&
      parts.indices.forall(k => Arrays.equals(packed(k), parts(k).words)) &&
      pos.indices.forall(i => got(i) == values(pos(i)))
  }

  /** Runs every scheme over the known-defect probes and names each scheme
    * and input pair that returns a wrong value or throws.
    */
  def defectFailures(probes: Seq[(String, Array[Long])], seed: Long): Seq[String] =
    for {
      (input, values) <- probes
      (key, codec)    <- Schemes
      failure <- {
        val pos = positions(values.length, 256, seed)
        try (if (pass(key, codec, values, pos, Trace.Off)._2) None else Some(s"$key/$input: wrong values"))
        catch { case e: Exception => Some(s"$key/$input: ${e.getClass.getSimpleName}: ${e.getMessage}") }
      }
    } yield failure
}
