package repro.lecoformat

import java.util
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.SpecificInternalRow
import org.apache.spark.sql.sources._
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.sql.util.CaseInsensitiveStringMap

/** DataSourceV2 read path for `leco` table directories (short name "leco"):
  * `spark.read.format("leco").load(dir)`.
  *
  * Supports column pruning and filter pushdown. Pushed range filters are
  * used for row-group zone-map skipping and encoding-level partition
  * skipping inside executors; all filters are also returned as residuals so
  * Spark re-evaluates them (correctness is never delegated to the pruning).
  */
class LecoDataSource extends TableProvider with DataSourceRegister {
  override def shortName(): String = "leco"

  private def pathOf(options: CaseInsensitiveStringMap): String = {
    val p = options.get("path")
    require(p != null, "leco source requires a path")
    p
  }

  override def inferSchema(options: CaseInsensitiveStringMap): StructType = {
    val files = LecoTable.partFiles(pathOf(options))
    require(files.nonEmpty, "empty leco table")
    val cols = new LecoFileReader(files(0)).columns
    StructType(cols.map(c => StructField(c, LongType, nullable = false)))
  }

  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: util.Map[String, String]): Table =
    new LecoSparkTable(properties.get("path"), schema)
}

final class LecoSparkTable(path: String, schema: StructType) extends Table with SupportsRead {
  override def name(): String = s"leco:$path"
  override def schema(): StructType = schema
  override def capabilities(): util.Set[TableCapability] = Set(TableCapability.BATCH_READ).asJava
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new LecoScanBuilder(path, schema)
}

final class LecoScanBuilder(path: String, schema: StructType)
    extends ScanBuilder with SupportsPushDownFilters with SupportsPushDownRequiredColumns {
  private var required: StructType = schema
  private var pushed: Array[Filter] = Array.empty

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    pushed = filters.filter(LecoScanBuilder.supported)
    filters // everything is residual: Spark re-applies for exactness
  }
  override def pushedFilters(): Array[Filter] = pushed
  override def pruneColumns(requiredSchema: StructType): Unit = required = requiredSchema
  override def build(): Scan = new LecoScan(path, required, pushed)
}

object LecoScanBuilder {
  /** An integral literal. A fractional one is never pushed: truncating it
    * would turn `ts < 5.5` into `ts <= 4` and drop the `ts = 5` rows.
    */
  private object Integral {
    def unapply(v: Any): Option[Long] = v match {
      case x @ (_: java.lang.Byte | _: java.lang.Short | _: java.lang.Integer | _: java.lang.Long) =>
        Some(x.asInstanceOf[Number].longValue)
      case _ => None
    }
  }

  def supported(f: Filter): Boolean = f match {
    case EqualTo(_, Integral(_)) | GreaterThan(_, Integral(_)) | GreaterThanOrEqual(_, Integral(_)) |
         LessThan(_, Integral(_)) | LessThanOrEqual(_, Integral(_)) => true
    case And(l, r) => supported(l) && supported(r)
    case _         => false
  }

  /** Collapse supported filters into per-column [lo, hi] ranges; an empty
    * range has lo > hi.
    */
  def toRanges(filters: Array[Filter]): Map[String, (Long, Long)] = {
    val m = scala.collection.mutable.Map[String, (Long, Long)]()
    def merge(col: String, lo: Long, hi: Long): Unit = {
      val (l0, h0) = m.getOrElse(col, (Long.MinValue, Long.MaxValue))
      m(col) = (math.max(l0, lo), math.min(h0, hi))
    }
    def walk(f: Filter): Unit = f match {
      case EqualTo(c, Integral(v))            => merge(c, v, v)
      case GreaterThan(c, Integral(v))        =>
        if (v == Long.MaxValue) merge(c, v, Long.MinValue) else merge(c, v + 1, Long.MaxValue)
      case GreaterThanOrEqual(c, Integral(v)) => merge(c, v, Long.MaxValue)
      case LessThan(c, Integral(v))           =>
        if (v == Long.MinValue) merge(c, Long.MaxValue, v) else merge(c, Long.MinValue, v - 1)
      case LessThanOrEqual(c, Integral(v))    => merge(c, Long.MinValue, v)
      case And(l, r)                          => walk(l); walk(r)
      case _                                  =>
    }
    filters.foreach(walk)
    m.toMap
  }
}

final case class LecoInputPartition(filePath: String) extends InputPartition

final class LecoScan(path: String, required: StructType, pushed: Array[Filter])
    extends Scan with Batch {
  override def readSchema(): StructType = required
  override def toBatch: Batch = this
  override def planInputPartitions(): Array[InputPartition] =
    LecoTable.partFiles(path).map(f => LecoInputPartition(f.getAbsolutePath): InputPartition)
  override def createReaderFactory(): PartitionReaderFactory =
    new LecoReaderFactory(required.fieldNames, LecoScanBuilder.toRanges(pushed))
}

final class LecoReaderFactory(cols: Array[String], ranges: Map[String, (Long, Long)])
    extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
    new LecoPartitionReader(partition.asInstanceOf[LecoInputPartition].filePath, cols, ranges)
}

/** Reads one part file row group by row group: `LecoFileReader.select`
  * picks the rows within the pushed ranges, and each required column is
  * decoded whole or materialized at them. The columns stay as decoded;
  * `get` copies one row into a reused mutable row, which Spark's unsafe
  * projection above the scan copies before the next `get`.
  */
final class LecoPartitionReader(filePath: String, cols: Array[String],
                                ranges: Map[String, (Long, Long)])
    extends PartitionReader[InternalRow] {
  private val reader = new LecoFileReader(new java.io.File(filePath))
  private val colIdx = cols.map(reader.colIndex)
  private val preds: Seq[(Int, ScanPredicate)] = ranges.toSeq.collect {
    case (c, (lo, hi)) if reader.columns.contains(c) => reader.colIndex(c) -> RangePredicate(lo, hi)
  }
  private val row = new SpecificInternalRow(cols.toSeq.map(_ => LongType))
  private var group = 0
  private var values: Array[Array[Long]] = _ // current group, one array per required column
  private var nRows = 0
  private var rowIdx = -1

  override def next(): Boolean = {
    rowIdx += 1
    while (rowIdx >= nRows && group < reader.numGroups) {
      val sel = reader.select(group, preds)
      nRows = sel.fold(reader.groupRows(group))(_.length)
      if (nRows > 0) values = colIdx.map { c =>
        val chunk = reader.readChunk(group, c)
        sel.fold(chunk.decodeAll())(chunk.materialize)
      }
      rowIdx = 0
      group += 1
    }
    rowIdx < nRows
  }

  override def get(): InternalRow = {
    var c = 0
    while (c < values.length) { row.setLong(c, values(c)(rowIdx)); c += 1 }
    row
  }

  override def close(): Unit = ()
}
