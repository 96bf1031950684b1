package repro.perfbench

import java.io.{File, RandomAccessFile}
import scala.jdk.CollectionConverters._
import scala.util.Random
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.connector.catalog.SupportsRead
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.sources.{GreaterThanOrEqual, LessThanOrEqual, Filter => SparkFilter}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import repro.lecoformat._

/** The filter of a benchmark query on `ts`. */
sealed trait Where {
  def test(ts: Long): Boolean
}
object Where {
  case object All extends Where { def test(ts: Long): Boolean = true }
  /** `a <= ts <= b` */
  final case class Range(a: Long, b: Long) extends Where { def test(ts: Long): Boolean = ts >= a && ts <= b }
  /** `t1 <= ts % 86400 < t2`, the paper's time-of-day window */
  final case class Window(t1: Long, t2: Long) extends Where {
    def test(ts: Long): Boolean = { val r = ts % 86400; r >= t1 && r < t2 }
  }
}

sealed abstract class Agg(val sql: String)
object Agg {
  case object Count extends Agg("count(*)")
  case object SumTs extends Agg("sum(ts)")
  case object SumId extends Agg("sum(id)")
}

final case class Query(aggs: Seq[Agg], where: Where) {
  import Where._

  def sql(view: String): String = {
    val filter = where match {
      case All            => ""
      case Range(a, b)    => s" WHERE ts >= $a AND ts <= $b"
      case Window(t1, t2) => s" WHERE ts % 86400 >= $t1 AND ts % 86400 < $t2"
    }
    s"SELECT ${aggs.map(_.sql).mkString(", ")} FROM $view$filter"
  }

  /** Columns Spark asks the source for, in table order. */
  def columns: Seq[String] =
    Seq("ts", "id").filter(c => (c == "ts" && (where != All || aggs.contains(Agg.SumTs))) ||
                                (c == "id" && aggs.contains(Agg.SumId)))

  /** The filters Spark pushes to the source: the two range comparisons; it
    * cannot push `%`, so the window is evaluated above the scan.
    */
  def pushed: Array[SparkFilter] = where match {
    case Range(a, b) => Array(GreaterThanOrEqual("ts", a), LessThanOrEqual("ts", b))
    case _           => Array.empty
  }

  def predicate: Option[ScanPredicate] = where match {
    case All            => None
    case Range(a, b)    => Some(RangePredicate(a, b))
    case Window(t1, t2) => Some(TimeOfDayPredicate(86400, t1, t2))
  }

  /** The answer, computed from the generated arrays. Sums of no rows are 0. */
  def oracle(t: Table): Seq[Long] = {
    var count = 0L; var sumTs = 0L; var sumId = 0L
    var i = 0
    while (i < t.n) {
      if (where.test(t.ts(i))) { count += 1; sumTs += t.ts(i); sumId += t.id(i) }
      i += 1
    }
    answer(count, sumTs, sumId)
  }

  def answer(count: Long, sumTs: Long, sumId: Long): Seq[Long] = aggs.map {
    case Agg.Count => count
    case Agg.SumTs => sumTs
    case Agg.SumId => sumId
  }
}

object Query {
  val FullScan = Query(Seq(Agg.Count, Agg.SumTs, Agg.SumId), Where.All)

  /** Two full scans and one that needs only `ts` (column pruning). The 2:1
    * weight keeps the median inside one query's latencies, not in the gap
    * between the two.
    */
  val FullScanMix: Seq[Query] = Seq(FullScan, FullScan, Query(Seq(Agg.SumTs), Where.All))

  val Selectivities: Seq[Double] = Seq(0.001, 0.01, 0.1)

  /** Nine `count(*), sum(id)` queries: one `ts` range and two
    * `ts % 86400` windows at each selectivity, placed by the seed. Spark
    * cannot push `%`, so every window query decodes the whole table and they
    * share one narrow band of latencies, while the ranges spread with their
    * selectivity. The 1:2 weight puts the median and the 75th percentile
    * inside the window band rather than in a gap between bands.
    */
  def selectiveMix(t: Table, seed: Long): Seq[Query] = {
    val r = new Random(seed)
    for {
      sel <- Selectivities
      q   <- Seq(range(t, sel, r), window(sel, r), window(sel, r))
    } yield q
  }

  def range(t: Table, sel: Double, r: Random): Query = {
    val k = math.max(2, (sel * t.n).toInt)
    val s = r.nextInt(t.n - k + 1)
    val (a, b) = (t.ts(s), t.ts(s + k - 1))
    Query(Seq(Agg.Count, Agg.SumId), Where.Range(math.min(a, b), math.max(a, b)))
  }

  def window(sel: Double, r: Random): Query = {
    val w  = math.max(1L, math.round(sel * 86400))
    val t1 = r.nextInt((86400 - w + 1).toInt).toLong
    Query(Seq(Agg.Count, Agg.SumId), Where.Window(t1, t1 + w))
  }
}

/** The benchmark's calls into Spark, the `leco` format and its DataSourceV2
  * read path. Spans name the layer each call enters.
  */
object TableOps {
  val Files = 8
  val Encoding = repro.lecoformat.Encoding.LecoFix

  /** A DataFrame of the table in `Files` contiguous slices, so each slice
    * becomes one part file, and the call that frees its broadcast arrays.
    */
  def frame(spark: SparkSession, t: Table): (DataFrame, () => Unit) = {
    import spark.implicits._
    val ts = spark.sparkContext.broadcast(t.ts)
    val id = spark.sparkContext.broadcast(t.id)
    val df = spark.range(0, t.n, 1, Files).map(i => (ts.value(i.intValue), id.value(i.intValue))).toDF("ts", "id")
    (df, () => { ts.destroy(); id.destroy() })
  }

  def write(df: DataFrame, dir: File, rowGroupRows: Int, tr: Trace): Unit =
    tr.span("writer.write")(LecoWriter.write(df, dir.getPath, Encoding, CodecOps.FilePartSize,
                                             zstd = false, rowGroupRows = rowGroupRows))

  /** Replays the chunk encodes of a table write in-process, slice by slice
    * and row group by row group, as each writer task does them.
    */
  def replayEncode(t: Table, rowGroupRows: Int, tr: Trace): Unit =
    for (f <- 0 until Files) {
      val (from, until) = ((f.toLong * t.n / Files).toInt, ((f + 1).toLong * t.n / Files).toInt)
      for (g <- from until until by rowGroupRows; col <- Seq(t.ts, t.id)) {
        val vals = java.util.Arrays.copyOfRange(col, g, math.min(g + rowGroupRows, until))
        tr.span("chunk.encode", vals.length)(ChunkCodec.encode(vals, Encoding, CodecOps.FilePartSize, zstd = false))
      }
    }

  /** Spark SQL over `view`; returns the answer row as longs (null sum = 0). */
  def sparkQuery(spark: SparkSession, q: Query, view: String, span: String, tr: Trace): Seq[Long] = {
    val row = tr.span(span)(spark.sql(q.sql(view)).collect())(0)
    q.aggs.indices.map(i => if (row.isNullAt(i)) 0L else row.getLong(i))
  }

  private def rawChunk(file: File, r: LecoFileReader, g: Int, col: Int, tr: Trace): ColumnChunk = {
    val (_, _, _, offs, lens) = r.groups(g)
    val bytes = tr.span("file.read", lens(col)) {
      val raf = new RandomAccessFile(file, "r")
      try { raf.seek(offs(col)); val b = new Array[Byte](lens(col)); raf.readFully(b); b }
      finally raf.close()
    }
    tr.count("file.bytes_read", bytes.length)
    tr.span("chunk.deserialize")(ChunkCodec.decode(bytes))
  }

  /** The query replayed in-process through the public DataSourceV2 objects,
    * then each layer call the partition reader makes, one at a time. Returns
    * the answer computed from the rows the readers emitted.
    */
  def replay(dir: File, q: Query, tr: Trace): Seq[Long] = {
    val (parts, factory) = tr.span("dsv2.plan") {
      val source  = new LecoDataSource
      val options = new CaseInsensitiveStringMap(Map("path" -> dir.getPath).asJava)
      val schema  = source.inferSchema(options)
      val table   = source.getTable(schema, Array.empty[Transform], options).asInstanceOf[SupportsRead]
      val builder = table.newScanBuilder(options).asInstanceOf[LecoScanBuilder]
      builder.pushFilters(q.pushed)
      builder.pruneColumns(StructType(q.columns.map(StructField(_, LongType, nullable = false))))
      val batch = builder.build().toBatch
      (batch.planInputPartitions(), batch.createReaderFactory())
    }
    val tsAt = q.columns.indexOf("ts"); val idAt = q.columns.indexOf("id")
    var count = 0L; var sumTs = 0L; var sumId = 0L; var emitted = 0L
    for (part <- parts) {
      tr.span("dsv2.reader_drain") {
        val reader = factory.createReader(part)
        try {
          while (reader.next()) {
            val row = reader.get()
            emitted += 1
            val ts = if (tsAt >= 0) row.getLong(tsAt) else 0L
            if (q.where.test(ts)) {
              count += 1
              if (tsAt >= 0) sumTs += ts
              if (idAt >= 0) sumId += row.getLong(idAt)
            }
          }
        } finally reader.close()
      }
      replayReader(new File(part.asInstanceOf[LecoInputPartition].filePath), q, tr)
    }
    tr.count("dsv2.rows_emitted", emitted)
    tr.count("query.rows_matched", count)
    q.answer(count, sumTs, sumId)
  }

  /** The layer calls `LecoPartitionReader` makes on one file, in its order:
    * zone check, then read, deserialize and scan each filtered column, then
    * read, deserialize and gather or fully decode each required column.
    */
  private def replayReader(file: File, q: Query, tr: Trace): Unit = {
    val ranges = LecoScanBuilder.toRanges(q.pushed)
    val r = tr.span("file.open")(new LecoFileReader(file))
    var skipped = 0L; var matched = 0L
    for (g <- 0 until r.numGroups) {
      val zoneOk = ranges.forall { case (col, (lo, hi)) =>
        val (zlo, zhi) = r.zone(g, r.colIndex(col))
        RangePredicate(lo, hi).mayMatch(zlo, zhi)
      }
      if (!zoneOk) skipped += 1
      else {
        var positions: Array[Int] = null
        for ((col, (lo, hi)) <- ranges) {
          val chunk = rawChunk(file, r, g, r.colIndex(col), tr)
          val m = tr.span("chunk.scan", chunk.n)(chunk.scan(RangePredicate(lo, hi)))
          positions = if (positions == null) m else positions.intersect(m)
        }
        if (positions != null) matched += positions.length
        if (positions == null || positions.nonEmpty)
          for (col <- q.columns) {
            val chunk = rawChunk(file, r, g, r.colIndex(col), tr)
            if (positions == null || positions.length == r.groupRows(g)) tr.span("chunk.decode_all", chunk.n)(chunk.decodeAll())
            else tr.span("chunk.gather", positions.length)(chunk.gather(positions))
          }
      }
    }
    tr.count("zone.groups_skipped", skipped)
    tr.count("scan.positions_matched", matched)
  }

  /** The direct path, `LecoTable.filterScan` projecting `id`, as the answer
    * of a `count(*), sum(id)` query.
    */
  def direct(dir: File, q: Query, tr: Trace): Seq[Long] = {
    val out = tr.span("direct.filter_scan")(LecoTable.filterScan(dir.getPath, "ts", q.predicate.get, "id"))
    q.answer(out.length, 0L, out.sum)
  }

  /** Reads a written table back through the file reader and returns
    * `(rows, sum(ts), sum(id))`.
    */
  def readBack(dir: File, tr: Trace): (Long, Long, Long) = {
    var rows = 0L; var sumTs = 0L; var sumId = 0L
    for (f <- LecoTable.partFiles(dir.getPath)) {
      val r = tr.span("file.open")(new LecoFileReader(f))
      for (g <- 0 until r.numGroups) {
        rows += r.groupRows(g)
        val ts = rawChunk(f, r, g, r.colIndex("ts"), tr)
        sumTs += tr.span("chunk.decode_all", ts.n)(ts.decodeAll()).sum
        val id = rawChunk(f, r, g, r.colIndex("id"), tr)
        sumId += tr.span("chunk.decode_all", id.n)(id.decodeAll()).sum
      }
    }
    (rows, sumTs, sumId)
  }

  def writeParquet(df: DataFrame, dir: File, tr: Trace): Long = {
    tr.span("parquet.write")(df.write.mode("overwrite").parquet(dir.getPath))
    dir.listFiles().filter(_.getName.endsWith(".parquet")).map(_.length).sum
  }
}
