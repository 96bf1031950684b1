package repro.lecoformat

import java.util
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.connector.catalog.{SupportsRead, SupportsWrite, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.{Expression, Expressions, GeneralScalarExpression, Literal, NamedReference, Transform}
import org.apache.spark.sql.connector.expressions.filter.{And, Predicate}
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.connector.write.{LogicalWriteInfo, WriteBuilder}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.sources
import org.apache.spark.sql.sources._
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.apache.spark.sql.vectorized.{ColumnVector, ColumnarArray, ColumnarBatch, ColumnarMap}
import org.apache.spark.unsafe.types.UTF8String

/** DataSourceV2 read and write paths for `leco` table directories (short
  * name "leco"): `spark.read.format("leco").load(dir)` and
  * `df.write.format("leco").mode("overwrite").save(dir)` (see [[LecoWriter]]).
  *
  * Supports column pruning and V2 predicate pushdown. Pushed ranges and
  * `col % m` windows are used for row-group zone-map skipping, encoding-level
  * partition skipping and LeCo's computation pruning inside executors; all
  * predicates are also returned as residuals so Spark re-evaluates them
  * (correctness is never delegated to the pruning). Spark reads each row
  * group as one columnar batch over the decoded arrays.
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

  /** A write passes its input's schema, so that saving to a new directory
    * infers nothing.
    */
  override def supportsExternalMetadata(): Boolean = true

  /** Every column of the table is a BIGINT, and Spark casts integral input
    * columns up to it before a writer sees them. Any other type is rejected
    * here, as its cast to a long would not be exact. A written column keeps
    * its nullability, so that a null reaches the writer, which names its
    * column.
    */
  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: util.Map[String, String]): Table = {
    val longs = schema.fields.map {
      case f @ StructField(_, ByteType | ShortType | IntegerType | LongType, _, _) => f.copy(dataType = LongType)
      case f => throw new IllegalArgumentException(
        s"leco column `${f.name}` has type ${f.dataType.sql}: a leco table stores integral columns only")
    }
    new LecoSparkTable(properties.get("path"), StructType(longs))
  }
}

final class LecoSparkTable(path: String, schema: StructType) extends Table with SupportsRead with SupportsWrite {
  override def name(): String = s"leco:$path"
  override def schema(): StructType = schema
  override def capabilities(): util.Set[TableCapability] = {
    import TableCapability._
    Set(BATCH_READ, BATCH_WRITE, TRUNCATE).asJava
  }
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new LecoScanBuilder(path, schema)
  override def newWriteBuilder(info: LogicalWriteInfo): WriteBuilder = new LecoBatchWrite(path, info)
}

final class LecoScanBuilder(path: String, schema: StructType)
    extends ScanBuilder with SupportsPushDownV2Filters with SupportsPushDownRequiredColumns {
  import LecoScanBuilder._
  private var required: StructType = schema
  private var pushed: Array[Predicate] = Array.empty
  private var pushedV1: Array[Filter] = Array.empty

  override def pushPredicates(predicates: Array[Predicate]): Array[Predicate] = {
    pushed = predicates.filter(pushable)
    predicates // everything is residual: Spark re-applies for exactness
  }
  override def pushedPredicates(): Array[Predicate] = pushed

  /** V1 filters, pushed as the V2 predicates they are. */
  def pushFilters(filters: Array[Filter]): Array[Filter] = {
    pushedV1 = filters.filter(f => toV2(f).exists(pushable))
    pushPredicates(filters.flatMap(toV2))
    filters
  }
  def pushedFilters(): Array[Filter] = pushedV1

  override def pruneColumns(requiredSchema: StructType): Unit = required = requiredSchema
  override def build(): Scan = new LecoScan(path, required, translate(pushed.toSeq))
}

/** The one translation from Spark's V2 predicates to the reader's
  * per-column [[ScanPredicate]]s. A comparison (`=`, `<`, `<=`, `>`, `>=`,
  * either operand order) of a column with an integral literal is a range; of
  * `col % m`, with `m` a positive integral literal, a remainder window
  * (Spark translates `%` only in ANSI mode, its default). `AND` splits into
  * its parts. Bounds on one column merge into one [[RangePredicate]], and
  * bounds on one `(col, m)` into one [[TimeOfDayPredicate]]: Spark pushes
  * `ts % 86400 >= t1` and `ts % 86400 < t2` apart, and only the merged
  * window lets a scan jump.
  */
object LecoScanBuilder {
  private val Integral: Set[DataType] = Set(ByteType, ShortType, IntegerType, LongType)

  /** An integral literal. A fractional one is never pushed: truncating it
    * would turn `ts < 5.5` into `ts <= 4` and drop the `ts = 5` rows.
    */
  private object IntLit {
    def unapply(e: Expression): Option[Long] = e match {
      case l: Literal[_] if Integral(l.dataType) => Some(l.value.asInstanceOf[Number].longValue)
      case _                                     => None
    }
  }

  /** A column, `(col, None)`, or its remainder modulo a positive literal, `(col, Some(m))`. */
  private object Term {
    def unapply(e: Expression): Option[(String, Option[Long])] = e match {
      case r: NamedReference if r.fieldNames.length == 1 => Some((r.fieldNames()(0), None))
      case g: GeneralScalarExpression if g.name == "%" => g.children match {
        case Array(Term(c, None), IntLit(m)) if m > 0 => Some((c, Some(m)))
        case _                                        => None
      }
      case _ => None
    }
  }

  private val Flipped = Map("=" -> "=", "<" -> ">", "<=" -> ">=", ">" -> "<", ">=" -> "<=")
  private val Empty = (Long.MaxValue, Long.MinValue)

  /** `term op v` as an interval `[lo, hi]`; empty when `lo > hi`. */
  private def interval(op: String, v: Long): (Long, Long) = op match {
    case "="  => (v, v)
    case ">"  => if (v == Long.MaxValue) Empty else (v + 1, Long.MaxValue)
    case ">=" => (v, Long.MaxValue)
    case "<"  => if (v == Long.MinValue) Empty else (Long.MinValue, v - 1)
    case "<=" => (Long.MinValue, v)
  }

  /** The intervals `p` puts on terms, or `None` when some part of it has no translation. */
  private def bounds(p: Predicate): Option[Seq[((String, Option[Long]), (Long, Long))]] = p match {
    case a: And => for (l <- bounds(a.left); r <- bounds(a.right)) yield l ++ r
    case _ if Flipped.contains(p.name) => p.children match {
      case Array(Term(c, m), IntLit(v)) => Some(Seq((c, m) -> interval(p.name, v)))
      case Array(IntLit(v), Term(c, m)) => Some(Seq((c, m) -> interval(Flipped(p.name), v)))
      case _                            => None
    }
    case _ => None
  }

  def pushable(p: Predicate): Boolean = bounds(p).isDefined

  /** The scan predicates of the pushable `predicates`, one per term, in
    * the order the terms first appear. A window is clamped to the
    * remainder range `[-(m-1), m-1]`.
    */
  def translate(predicates: Seq[Predicate]): Seq[(String, ScanPredicate)] = {
    val merged = scala.collection.mutable.LinkedHashMap[(String, Option[Long]), (Long, Long)]()
    for (p <- predicates; parts <- bounds(p); (term, (lo, hi)) <- parts) {
      val (l0, h0) = merged.getOrElse(term, (Long.MinValue, Long.MaxValue))
      merged(term) = (math.max(l0, lo), math.min(h0, hi))
    }
    merged.toSeq.map {
      case ((c, None), (lo, hi))    => c -> RangePredicate(lo, hi)
      case ((c, Some(m)), (lo, hi)) => c -> TimeOfDayPredicate(m, math.max(lo, 1 - m), math.min(hi, m - 1) + 1)
    }
  }

  /** A V1 comparison or `AND` as the V2 predicate Spark would push. */
  def toV2(f: Filter): Option[Predicate] = {
    def cmp(op: String, c: String, v: Any) =
      Some(new Predicate(op, Array[Expression](Expressions.column(c), Expressions.literal(v))))
    f match {
      case EqualTo(c, v)            => cmp("=", c, v)
      case GreaterThan(c, v)        => cmp(">", c, v)
      case GreaterThanOrEqual(c, v) => cmp(">=", c, v)
      case LessThan(c, v)           => cmp("<", c, v)
      case LessThanOrEqual(c, v)    => cmp("<=", c, v)
      case sources.And(l, r)        => for (a <- toV2(l); b <- toV2(r)) yield new And(a, b)
      case _                        => None
    }
  }

  /** V1 range filters as per-column `[lo, hi]` ranges; an empty range has lo > hi. */
  def toRanges(filters: Array[Filter]): Map[String, (Long, Long)] =
    translate(filters.toSeq.flatMap(toV2)).collect { case (c, RangePredicate(lo, hi)) => c -> (lo, hi) }.toMap
}

final case class LecoInputPartition(filePath: String) extends InputPartition

final class LecoScan(path: String, required: StructType, preds: Seq[(String, ScanPredicate)])
    extends Scan with Batch {
  override def readSchema(): StructType = required
  override def toBatch: Batch = this
  override def planInputPartitions(): Array[InputPartition] =
    LecoTable.partFiles(path).map(f => LecoInputPartition(f.getAbsolutePath): InputPartition)
  override def createReaderFactory(): PartitionReaderFactory = new LecoReaderFactory(required.fieldNames, preds)

  /** The scan predicates that reach the reader, as `EXPLAIN` shows them:
    * `leco [ts: 10 <= ts % 1000 < 21]`.
    */
  override def description(): String = preds.map {
    case (c, RangePredicate(a, b)) if a == b    => s"$c: $c = $a"
    case (c, RangePredicate(a, Long.MaxValue))  => s"$c: $c >= $a"
    case (c, RangePredicate(Long.MinValue, b))  => s"$c: $c <= $b"
    case (c, RangePredicate(a, b))              => s"$c: $a <= $c <= $b"
    case (c, TimeOfDayPredicate(m, t1, t2))     => s"$c: $t1 <= $c % $m < $t2"
    case (c, p)                                 => s"$c: $p"
  }.mkString("leco [", ", ", "]")
}

final class LecoReaderFactory(cols: Array[String], preds: Seq[(String, ScanPredicate)])
    extends PartitionReaderFactory {
  private def pathOf(partition: InputPartition) = partition.asInstanceOf[LecoInputPartition].filePath
  override def supportColumnarReads(partition: InputPartition): Boolean = true
  override def createColumnarReader(partition: InputPartition): PartitionReader[ColumnarBatch] =
    new LecoBatchReader(pathOf(partition), cols, preds)
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
    new LecoPartitionReader(pathOf(partition), cols, preds)
}

/** Reads one part file as one batch per row group with a selected row:
  * `LecoFileReader.select` picks the rows within the scan predicates, and
  * each required column is decoded whole or materialized at them. The
  * batch's vectors are the decoded arrays themselves.
  */
final class LecoBatchReader(filePath: String, cols: Array[String],
                            scanPreds: Seq[(String, ScanPredicate)])
    extends PartitionReader[ColumnarBatch] {
  private val reader = new LecoFileReader(new java.io.File(filePath))
  private val colIdx = cols.map(reader.colIndex)
  private val preds: Seq[(Int, ScanPredicate)] = scanPreds.collect {
    case (c, p) if reader.columns.contains(c) => reader.colIndex(c) -> p
  }
  private var group = 0
  private var batch: ColumnarBatch = _

  override def next(): Boolean = {
    batch = null
    while (batch == null && group < reader.numGroups) {
      val sel = reader.select(group, preds)
      val n = sel.fold(reader.groupRows(group))(_.length)
      if (n > 0) batch = new ColumnarBatch(colIdx.map { c =>
        val chunk = reader.readChunk(group, c)
        new LongArrayVector(sel.fold(chunk.decodeAll())(chunk.materialize))
      }, n)
      group += 1
    }
    batch != null
  }

  override def get(): ColumnarBatch = batch
  override def close(): Unit = ()
}

/** A non-null `LongType` column over `values`, in place; every getter but
  * `getLong` throws.
  */
final class LongArrayVector(values: Array[Long]) extends ColumnVector(LongType) {
  override def getLong(rowId: Int): Long = values(rowId)
  override def hasNull: Boolean = false
  override def numNulls: Int = 0
  override def isNullAt(rowId: Int): Boolean = false
  override def close(): Unit = ()

  private def unsupported = throw new UnsupportedOperationException("a leco column holds only longs")
  override def getBoolean(rowId: Int): Boolean = unsupported
  override def getByte(rowId: Int): Byte = unsupported
  override def getShort(rowId: Int): Short = unsupported
  override def getInt(rowId: Int): Int = unsupported
  override def getFloat(rowId: Int): Float = unsupported
  override def getDouble(rowId: Int): Double = unsupported
  override def getArray(rowId: Int): ColumnarArray = unsupported
  override def getMap(ordinal: Int): ColumnarMap = unsupported
  override def getDecimal(rowId: Int, precision: Int, scale: Int): Decimal = unsupported
  override def getUTF8String(rowId: Int): UTF8String = unsupported
  override def getBinary(rowId: Int): Array[Byte] = unsupported
  override def getChild(ordinal: Int): ColumnVector = unsupported
}

/** The rows of [[LecoBatchReader]]'s batches, one at a time, for callers
  * that read rows.
  */
final class LecoPartitionReader(filePath: String, cols: Array[String],
                                scanPreds: Seq[(String, ScanPredicate)])
    extends PartitionReader[InternalRow] {
  private val batches = new LecoBatchReader(filePath, cols, scanPreds)
  private var rows: java.util.Iterator[InternalRow] = java.util.Collections.emptyIterator()
  private var row: InternalRow = _

  override def next(): Boolean = {
    while (!rows.hasNext && batches.next()) rows = batches.get().rowIterator()
    rows.hasNext && { row = rows.next(); true }
  }

  override def get(): InternalRow = row
  override def close(): Unit = batches.close()
}
