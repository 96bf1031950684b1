package repro.perfbench

import scala.util.Random
import repro.data.Datasets

/** The Fig 14 two-column table: `ts` is almost-sorted `wiki` seconds and
  * `id` is shuffled `facebook` ids.
  */
final case class Table(ts: Array[Long], id: Array[Long]) {
  def n: Int = ts.length
}

/** The seeded inputs of the benchmark. Each generator gets its own seed
  * drawn from one `Random(seed)`, so the same seed always gives the same
  * inputs.
  */
object Inputs {

  def table(n: Int, seed: Long): Table = {
    val r  = new Random(seed)
    val ts = Datasets.wiki(n, r.nextLong())
    val jitter = new Random(r.nextLong())
    var i = 0
    while (i + 4 < n) {
      if (jitter.nextInt(10) == 0) { val t = ts(i); ts(i) = ts(i + 1); ts(i + 1) = t }
      i += 2
    }
    val id = Datasets.facebook(n, r.nextLong())
    val shuffle = new Random(r.nextLong())
    i = n - 1
    while (i > 0) { val j = shuffle.nextInt(i + 1); val t = id(i); id(i) = id(j); id(j) = t; i -= 1 }
    Table(ts, id)
  }

  /** Known-defect probes: smooth `wiki` offset by 2^62, and full-range random
    * values. The `facebook` generator stays below 2^53 on purpose, so only
    * these inputs reach the codecs' large-value defects.
    */
  def defectProbes(seed: Long, n: Int): Seq[(String, Array[Long])] = {
    val r = new Random(seed)
    Seq(
      "wiki+2^62"  -> Datasets.wiki(n, r.nextLong()).map(_ + (1L << 62)),
      "full_range" -> { val g = new Random(r.nextLong()); Array.fill(n)(g.nextLong()) },
    )
  }
}
