package repro.perfbench

import java.io.File
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{Datasets, IntDataset}
import repro.lecoformat.ChunkCodec

/** Sizes of one run. `tiny` is for the self-test only. */
final case class Sizes(tableRows: Int, rowGroupRows: Int, probeTableRows: Int, codecScaleDiv: Int,
                       codecMinN: Int, probeColumnCap: Int, getsPerPass: Int)
object Sizes {
  val Full = Sizes(1 << 21, 1 << 18, 1 << 20, 1000, 20_000, 1 << 19, 2000)
  val Tiny = Sizes(1 << 14, 1 << 12, 1 << 14, 100_000, 2000, 1 << 14, 200)
}

/** Attempts, failures and timed-region latencies of the ops of one phase. */
final class Tally {
  var attempted = 0L
  var failed    = 0L
  var rows      = 0L
  val latNs     = ArrayBuffer[Long]()

  /** Runs one op as a root span. `body` returns the nanoseconds of its timed
    * region and whether its answer was right; an exception is a failure and
    * never stops the run.
    */
  def op(name: String, rows: Long, tr: Trace)(body: => (Long, Boolean)): Unit = {
    attempted += 1
    try {
      val (ns, ok) = tr.span(name)(body)
      latNs += ns
      this.rows += rows
      if (!ok) { failed += 1; Console.err.println(s"[perfbench] $name: wrong answer") }
    } catch {
      case NonFatal(e) =>
        failed += 1
        Console.err.println(s"[perfbench] $name: ${e.getClass.getSimpleName}: ${e.getMessage}")
    }
  }

  def add(o: Tally): Unit = { attempted += o.attempted; failed += o.failed }
}

object Tally {
  def timed[A](body: => A): (A, Long) = { val t0 = System.nanoTime(); val a = body; (a, System.nanoTime() - t0) }
}

/** Shared state of one run: where it may write, and Spark when needed. */
final class Env(val seed: Long, val sizes: Sizes, val workDir: File) {
  private var session: SparkSession = _

  /** `local[k]` with k the smaller of 4 and the processors available. */
  def spark: SparkSession = {
    if (session == null) {
      val k = math.min(4, Runtime.getRuntime.availableProcessors())
      session = SparkSession.builder.master(s"local[$k]").appName("perfbench")
        .config("spark.ui.enabled", false)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.shuffle.partitions", k)
        .config("spark.local.dir", dir("spark-local").getPath)
        .config("spark.sql.warehouse.dir", dir("warehouse").getPath)
        .getOrCreate()
      session.sparkContext.setLogLevel("ERROR")
    }
    session
  }

  def dir(name: String): File = new File(workDir, name)

  def stop(): Unit = if (session != null) session.stop()
}

/** One workload: set-up, the closed loop's cycle of ops, and the probes of
  * the traced run that reach the layers the cycle does not.
  */
abstract class Workload(val env: Env) {
  /** One repetition of set-up; a later repetition replaces the earlier. */
  def setup(): Unit
  /** Untimed closed-loop seconds between set-up and measuring. */
  def warmSeconds: Double = 5.0
  /** Called once after the last set-up, outside its timing. */
  def prepare(): Unit = ()
  def cycle(tr: Trace, tally: Tally): Unit
  def storedBytesPerValue: Double
  def probe(tr: Trace, tally: Tally): Unit
}

object Workload {
  val Names: Seq[String] = Seq("sql_full_scan", "sql_selective", "ingest", "codec_micro")

  def apply(name: String, env: Env): Workload = name match {
    case "sql_full_scan" => new SqlWorkload(env, selective = false)
    case "sql_selective" => new SqlWorkload(env, selective = true)
    case "ingest"        => new IngestWorkload(env)
    case "codec_micro"   => new CodecMicro(env)
    case other           => throw new IllegalArgumentException(s"unknown workload $other; one of ${Names.mkString(", ")}")
  }
}

/** State and probes shared by the workloads that own the Fig 14 table. */
abstract class TableWorkload(env: Env) extends Workload(env) {
  env.spark // started before set-up, which is timed
  protected var table: Table = _
  protected var df: DataFrame = _
  private var release: () => Unit = () => ()
  protected val lecoDir: File = env.dir("leco")

  /** Spark's driver code (analysis, planning, scheduling) runs a few times
    * per op, so the JIT reaches it only after many ops: after a 5 s warm-up
    * the first seconds measured run 10-20% slower than the rest.
    */
  override def warmSeconds: Double = 8.0

  protected def generate(n: Int): Unit = {
    release()
    table = Inputs.table(n, env.seed)
    val (frame, free) = TableOps.frame(env.spark, table)
    df = frame; release = free
  }

  def storedBytesPerValue: Double = repro.lecoformat.LecoTable.totalSizeBytes(lecoDir.getPath).toDouble / (2L * table.n)

  /** Queries the Parquet reference runs. */
  protected def parquetMix: Seq[Query]

  def probe(tr: Trace, tally: Tally): Unit = {
    val cols = Seq("ts" -> table.ts, "id" -> table.id)
    TableProbe.core(cols.map { case (n, v) => n -> v.take(env.sizes.probeColumnCap) }, env, tr, tally, codecPasses = true)
    TableProbe.table(table, df, parquetMix, env, tr, tally)
  }
}

/** `sql_full_scan` and `sql_selective`: Spark SQL over `format("leco")`. */
final class SqlWorkload(env: Env, selective: Boolean) extends TableWorkload(env) {
  private var mix: Seq[Query] = Nil
  private var expected: Map[Query, Seq[Long]] = Map.empty

  def setup(): Unit = {
    generate(env.sizes.tableRows)
    TableOps.write(df, lecoDir, env.sizes.rowGroupRows, Trace.Off)
    env.spark.read.format("leco").load(lecoDir.getPath).createOrReplaceTempView("t")
  }

  override def prepare(): Unit = {
    mix = if (selective) Query.selectiveMix(table, env.seed) else Query.FullScanMix
    expected = mix.map(q => q -> q.oracle(table)).toMap
  }

  protected def parquetMix: Seq[Query] = mix

  def cycle(tr: Trace, tally: Tally): Unit =
    for (q <- mix) tally.op("op.query", table.n, tr) {
      val (answer, ns) = Tally.timed(TableOps.sparkQuery(env.spark, q, "t", "spark.exec", tr))
      var ok = answer == expected(q)
      if (tr.enabled) {
        ok &= TableOps.replay(lecoDir, q, tr) == expected(q)
        if (q.predicate.nonEmpty) ok &= TableOps.direct(lecoDir, q, tr) == expected(q)
      }
      (ns, ok)
    }
}

/** `ingest`: repeated `LecoWriter.write` of one cached DataFrame. */
final class IngestWorkload(env: Env) extends TableWorkload(env) {
  private var expected: (Long, Long, Long) = _

  def setup(): Unit = {
    if (df != null) df.unpersist(blocking = true)
    generate(env.sizes.tableRows)
    df = df.cache()
    df.count()
  }

  override def prepare(): Unit = expected = (table.n.toLong, table.ts.sum, table.id.sum)

  protected def parquetMix: Seq[Query] = TableProbe.queries(table, env.seed)

  def cycle(tr: Trace, tally: Tally): Unit =
    tally.op("op.write", table.n, tr) {
      val (_, ns) = Tally.timed(TableOps.write(df, lecoDir, env.sizes.rowGroupRows, tr))
      if (tr.enabled) TableOps.replayEncode(table, env.sizes.rowGroupRows, tr)
      (ns, TableOps.readBack(lecoDir, tr) == expected)
    }
}

/** `codec_micro`: the nine paper data sets through the five schemes, in
  * memory, single-threaded, with no Spark or file in the loop.
  *
  * The data sets are the fixed registry `Datasets.integerDatasets`, the
  * stand-ins for the paper's real data; the seed chooses the `get`
  * positions. Delta-var's partitioner takes most of a cycle, and its cost
  * swings by 2x between statistically alike draws of one generator, which
  * would drown every other scheme's change.
  */
final class CodecMicro(env: Env) extends Workload(env) {
  private var datasets: Seq[IntDataset] = Nil
  private var positions: Seq[Array[Int]] = Nil
  private var storedBytes = 0L

  def setup(): Unit = {
    datasets = Datasets.integerDatasets(env.sizes.codecScaleDiv, env.sizes.codecMinN)
    positions = datasets.zipWithIndex.map { case (d, k) =>
      CodecOps.positions(d.values.length, env.sizes.getsPerPass, env.seed + k)
    }
  }

  /** Real bytes of the data sets as `leco` LeCo-fix chunks. */
  override def prepare(): Unit =
    storedBytes = datasets.map(d => ChunkCodec.encode(d.values, TableOps.Encoding, CodecOps.FilePartSize, zstd = false).length.toLong).sum

  def storedBytesPerValue: Double = storedBytes.toDouble / datasets.map(_.values.length.toLong).sum

  /** One cycle: every scheme once, LeCo-fix `CodecMicro.LecoFixWeight`
    * times. Each scheme's ops form a latency band of their own; the weight
    * makes LeCo-fix, the paper's codec, hold the ranks from 0.2-0.3 up to
    * 0.8-0.9, so both percentiles measure it. Unweighted, the median fell on
    * Delta-fix, the band that moved most with the host from run to run.
    */
  private val mix = CodecOps.Schemes.flatMap { case s @ (key, _) =>
    Seq.fill(if (key == "leco_fix") CodecMicro.LecoFixWeight else 1)(s)
  }

  /** An op is one scheme's pass over all nine data sets, so each op's time
    * sums nine inputs instead of swinging with one.
    */
  def cycle(tr: Trace, tally: Tally): Unit =
    for ((key, codec) <- mix)
      tally.op("op.codec", datasets.map(_.values.length.toLong).sum, tr) {
        datasets.zip(positions).map { case (d, pos) => CodecOps.pass(key, codec, d.values, pos, tr) }
          .foldLeft((0L, true)) { case ((ns, ok), (n, o)) => (ns + n, ok && o) }
      }

  def probe(tr: Trace, tally: Tally): Unit = {
    TableProbe.core(datasets.map(d => d.name -> d.values), env, tr, tally, codecPasses = false)
    val t = Inputs.table(env.sizes.probeTableRows, env.seed)
    val (df, release) = TableOps.frame(env.spark, t)
    try TableProbe.table(t, df, TableProbe.queries(t, env.seed), env, tr, tally)
    finally release()
  }
}

object CodecMicro {
  val LecoFixWeight = 6
}

/** Probes of the traced run: fixed amounts of work, each an op of its own,
  * that reach the layers a workload's own cycle does not.
  */
object TableProbe {
  /** A full scan, a 1% `ts` range and a 1% `ts % 86400` window. */
  def queries(t: Table, seed: Long): Seq[Query] = {
    val r = new scala.util.Random(seed)
    Seq(Query.FullScan, Query.range(t, 0.01, r), Query.window(0.01, r))
  }

  /** Each probe runs once untraced first, so the traced call finds warm code. */
  def core(columns: Seq[(String, Array[Long])], env: Env, tr: Trace, tally: Tally, codecPasses: Boolean): Unit =
    for (((name, values), k) <- columns.zipWithIndex) {
      val pos = CodecOps.positions(values.length, env.sizes.getsPerPass, env.seed + k)
      for (pass <- Seq(Trace.Off, tr)) {
        tally.op(s"probe.core.$name", values.length, pass)(Tally.timed(CodecOps.layerProbe(values, pos, pass)).swap)
        if (codecPasses)
          for ((key, codec) <- CodecOps.Schemes)
            tally.op(s"probe.codec.$name", values.length, pass)(CodecOps.pass(key, codec, values, pos, pass))
      }
    }

  /** The table-level layers on `t`: the probe queries through Spark SQL and
    * the replay, the direct path, a table write with its encode replay, and
    * the Parquet reference write and queries.
    */
  def table(t: Table, df: DataFrame, parquetMix: Seq[Query], env: Env, tr: Trace, tally: Tally): Unit = {
    val spark = env.spark
    val probeDir = env.dir("probe-write")
    val parquetDir = env.dir("parquet")
    for (pass <- Seq(Trace.Off, tr)) {
      tally.op("probe.write", t.n, pass) {
        val (_, ns) = Tally.timed(TableOps.write(df, probeDir, env.sizes.rowGroupRows, pass))
        TableOps.replayEncode(t, env.sizes.rowGroupRows, pass)
        (ns, TableOps.readBack(probeDir, Trace.Off) == ((t.n.toLong, t.ts.sum, t.id.sum)))
      }
      spark.read.format("leco").load(probeDir.getPath).createOrReplaceTempView("probe")
      for (q <- queries(t, env.seed)) {
        val expected = q.oracle(t)
        tally.op("probe.query", t.n, pass) {
          val (answer, ns) = Tally.timed(TableOps.sparkQuery(spark, q, "probe", "spark.exec", pass))
          var ok = answer == expected && TableOps.replay(probeDir, q, pass) == expected
          if (q.predicate.nonEmpty) ok &= TableOps.direct(probeDir, q, pass) == expected
          (ns, ok)
        }
      }
      tally.op("probe.parquet_write", t.n, pass) {
        val (bytes, ns) = Tally.timed(TableOps.writeParquet(df, parquetDir, pass))
        pass.count("parquet.bytes", bytes)
        pass.count("parquet.values", 2L * t.n)
        (ns, bytes > 0)
      }
    }
    spark.read.parquet(parquetDir.getPath).createOrReplaceTempView("p")
    val expected = parquetMix.map(q => q -> q.oracle(t)).toMap
    var done = 0
    while (done < 12) {
      for (q <- parquetMix) tally.op("probe.parquet_query", t.n, tr) {
        val (answer, ns) = Tally.timed(TableOps.sparkQuery(spark, q, "p", "parquet.query", tr))
        (ns, answer == expected(q))
      }
      done += parquetMix.length
    }
  }
}
