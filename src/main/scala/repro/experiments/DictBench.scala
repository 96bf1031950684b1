package repro.experiments

import repro.data.Datasets
import repro.dict._

/** §4.4 (Fig 11): hash join whose probe side is order-preserving
  * dictionary-encoded; the dictionary is compressed with Raw/FOR/LeCo and
  * lives behind a memory-budgeted buffer pool. A 1% positional filter
  * selects probe rows; survivors decode their dictionary value and probe an
  * in-memory hash table with a 50% hit rate. Throughput = raw probe bytes /
  * (measured CPU + modeled page-miss I/O).
  */
object DictBench {

  final case class Result(codec: String, budgetBytes: Long, dictBytes: Long,
                          misses: Long, throughputMBps: Double, matches: Long)

  final case class Workload(codes: Array[Int], domain: Array[Long],
                            hash: java.util.HashSet[java.lang.Long])

  def workload(nProbe: Int, nUnique: Int): Workload = {
    val (probe, domain) = Datasets.medicare(nProbe, nUnique)
    // probe values are domain members; recover codes by binary search
    val codes = probe.map { v =>
      var lo = 0; var hi = domain.length - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (domain(mid) < v) lo = mid + 1 else hi = mid
      }
      lo
    }
    // hash table: 50% of the unique values (every other rank)
    val hash = new java.util.HashSet[java.lang.Long]()
    var i = 0
    while (i < nUnique) { hash.add(domain(i)); i += 2 }
    Workload(codes, domain, hash)
  }

  def buildDict(codec: String, domain: Array[Long], budget: Long): PagedDict = codec match {
    case "Raw"  => PagedDict.raw(domain, budget)
    case "FOR"  => PagedDict.forEncoded(domain, 1024, budget)
    case "LeCo" => PagedDict.lecoEncoded(domain, 1024, budget)
  }

  /** One measured run: warm pass, stats reset, measured pass. */
  def run(w: Workload, codec: String, budget: Long): Result = {
    val dict = buildDict(codec, w.domain, budget)
    try {
      var matches = 0L
      def pass(): Unit = {
        matches = 0
        var i = 0
        while (i < w.codes.length) {
          if (i % 100 == 0) { // 1% filter on the probe side
            val v = dict.lookup(w.codes(i))
            if (w.hash.contains(v)) matches += 1
          }
          i += 1
        }
      }
      pass() // warm the pool
      dict.pool.resetStats()
      val t0 = System.nanoTime()
      pass()
      val cpuNs = System.nanoTime() - t0
      val totalNs = cpuNs + dict.pool.modeledIoNanos
      val rawProbeBytes = w.codes.length.toLong * 8
      Result(codec, budget, dict.sizeBytes, dict.pool.misses,
             rawProbeBytes * 1000.0 / totalNs, matches)
    } finally dict.close()
  }

  def sweep(nProbe: Int = 2_000_000, nUnique: Int = 1_000_000,
            budgets: Seq[Long] = Seq(12L, 8L, 4L, 2L, 1L).map(_ * 1024 * 1024)): Seq[Result] = {
    val w = workload(nProbe, nUnique)
    for (budget <- budgets; codec <- Seq("Raw", "FOR", "LeCo")) yield run(w, codec, budget)
  }

  def format(rs: Seq[Result]): String = {
    val sb = new StringBuilder
    sb ++= f"${"budget(MB)"}%10s ${"codec"}%-6s ${"dict(KB)"}%10s ${"misses"}%10s ${"thru(MB/s)"}%11s\n"
    for (r <- rs)
      sb ++= f"${r.budgetBytes / 1048576.0}%10.1f ${r.codec}%-6s ${r.dictBytes / 1024.0}%10.1f ${r.misses}%10d ${r.throughputMBps}%11.1f\n"
    sb.toString
  }
}
