package repro.lecoformat

import java.io.File
import java.nio.file.Files
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.connector.catalog.SupportsRead
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.sources._
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.ByteLayoutSpec

/** The DataSourceV2 read path driven without a SparkSession, the way a
  * Spark task calls it: `LecoDataSource` → `LecoScanBuilder` (pushed
  * filters, pruned columns) → `LecoPartitionReader`. The reader must emit
  * exactly the rows within the pushed filters, in file order.
  */
class LecoReaderSpec extends AnyFunSuite {
  import LecoReaderSpec._

  test("a fractional pushed literal is not truncated: ts < 5.5 keeps the ts = 5 rows") {
    val ts = Array.tabulate(40)(i => (i % 10).toLong)
    withTable(Case(Encoding.LecoFix, zstd = false, groupRows = 16, Seq(Array(ts, ts, ts)), Nil, Seq("ts"), 0L)) { dir =>
      val (_, rows) = read(dir, Seq(LessThan("ts", 5.5)), Seq("ts"))
      assert(rows.count(_(0) == 5L) == ts.count(_ == 5L))
    }
  }

  test("the reader emits exactly the source rows within the pushed ranges, in file order") {
    val seen = scala.collection.mutable.Set[String]()
    ByteLayoutSpec.check(Prop.forAll(cases) { c =>
      withTable(c) { dir =>
        val (pushed, rows) = read(dir, c.filters, c.columns)
        val source = c.files.flatMap(cols => cols(0).indices.map(r => cols.map(_(r))))
        val want = source.filter(row => pushed.forall(holds(_, row))).map(row => c.columns.map(col => row(Columns.indexOf(col))))
        seen ++= paths(c, pushed)
        pushed.length == c.filters.length && rows.map(_.toSeq) == want
      }
    })
    // the branches the generated cases reach: zone skips, the all-rows path,
    // both branches of `materialize`, whole groups, narrowing, no columns
    assert(seen == Set("zone skip", "all rows", "gather", "decode", "every row", "narrowed", "no columns"))
  }
}

object LecoReaderSpec {
  val Columns = Seq("ts", "id", "grp")
  val PartSize = 64

  /** Part files of `(ts, id, grp)` columns, written with `enc`; the reader
    * is asked for `columns` under `filters`.
    */
  final case class Case(enc: Encoding, zstd: Boolean, groupRows: Int, files: Seq[Array[Array[Long]]],
                        filters: Seq[Filter], columns: Seq[String], seed: Long) {
    override def toString: String =
      s"$enc zstd=$zstd groupRows=$groupRows fileRows=${files.map(_(0).length)} seed=$seed " +
        s"filters=${filters.mkString(", ")} columns=$columns"
  }

  /** Almost-sorted `ts`, random `id` and low-cardinality `grp`, within
    * ±2^36. Random values near ±2^40 would trip a known LeCo-fix defect,
    * about 4 wrong values per million: `Regressor.refit` folds the minimum
    * delta into a `Double` θ0 inexactly. That is the codec's fault, not the
    * reader's, and this property is about the reader.
    */
  private def table(rows: Seq[Int], seed: Long): Seq[Array[Array[Long]]] = {
    val r = new scala.util.Random(seed)
    var t = r.nextLong() % (1L << 36)
    rows.map { n =>
      val ts = Array.fill(n) { t += r.nextInt(5); t }
      Array(ts, Array.fill(n)(r.nextLong() % (1L << 36)), Array.fill(n)(r.nextInt(10).toLong))
    }
  }

  /** An integral literal, boxed as Spark pushes it. */
  private def lit(v: Long): Any = if (v.isValidInt) Int.box(v.toInt) else Long.box(v)

  /** A comparison on `col` with literals at the extremes or next to its values:
    * empty, whole-table and partial ranges.
    */
  private def filterOn(col: String, vals: Array[Long]): Gen[Filter] = {
    val near = if (vals.isEmpty) Gen.const(0L) else Gen.oneOf(vals.toIndexedSeq).flatMap(v => Gen.oneOf(v - 1, v, v + 1))
    val v = Gen.frequency(1 -> Gen.oneOf(Long.MinValue, Long.MaxValue), 4 -> near)
    Gen.oneOf(
      v.map(x => EqualTo(col, lit(x))),
      v.map(x => GreaterThan(col, lit(x))),
      v.map(x => GreaterThanOrEqual(col, lit(x))),
      v.map(x => LessThan(col, lit(x))),
      v.map(x => LessThanOrEqual(col, lit(x))),
      Gen.zip(v, v).map { case (lo, hi) => And(GreaterThanOrEqual(col, lit(lo)), LessThanOrEqual(col, lit(hi))) })
  }

  val cases: Gen[Case] = for {
    enc       <- Gen.oneOf(Encoding.Default, Encoding.For, Encoding.LecoFix)
    zstd      <- Gen.oneOf(false, true)
    groupRows <- Gen.choose(32, 400)
    rows      <- Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.choose(0, 1500)))
    seed      <- Gen.long
    files      = table(rows, seed)
    filtered  <- Gen.choose(0, 2).flatMap(Gen.pick(_, Columns))
    filters   <- Gen.sequence[List[Filter], Filter](filtered.map(c => filterOn(c, files.flatMap(_(Columns.indexOf(c))).toArray)))
    columns   <- Gen.choose(0, 3).flatMap(Gen.pick(_, Columns))
  } yield Case(enc, zstd, groupRows, files, filters, columns.toSeq, seed)

  def holds(f: Filter, row: Array[Long]): Boolean = {
    def v(c: String) = row(Columns.indexOf(c))
    (f: @unchecked) match {
      case EqualTo(c, x: Number)            => v(c) == x.longValue
      case GreaterThan(c, x: Number)        => v(c) > x.longValue
      case GreaterThanOrEqual(c, x: Number) => v(c) >= x.longValue
      case LessThan(c, x: Number)           => v(c) < x.longValue
      case LessThanOrEqual(c, x: Number)    => v(c) <= x.longValue
      case And(l, r)                        => holds(l, row) && holds(r, row)
    }
  }

  /** The reader paths case `c` takes in its row groups, judged from the source rows. */
  private def paths(c: Case, pushed: Array[Filter]): Set[String] = {
    val ranges = LecoScanBuilder.toRanges(pushed)
    val groups = for (cols <- c.files; from <- cols(0).indices by c.groupRows)
      yield cols.map(_.slice(from, from + c.groupRows))
    groups.flatMap { g =>
      val n = g(0).length
      val k = (0 until n).count(r => pushed.forall(holds(_, g.map(_(r)))))
      val zoneSkip = ranges.exists { case (col, (lo, hi)) =>
        val vals = g(Columns.indexOf(col)); vals.max < lo || vals.min > hi
      }
      Seq(
        Option.when(zoneSkip)("zone skip"),
        Option.when(pushed.isEmpty)("all rows"),
        Option.when(pushed.nonEmpty && k == n)("every row"),
        Option.when(ranges.size == 2 && !zoneSkip && k > 0)("narrowed"),
        Option.when(c.columns.nonEmpty && k > 0 && k < n)(if (k * 10 < n) "gather" else "decode"),
        Option.when(c.columns.isEmpty && k > 0)("no columns"),
      ).flatten
    }.toSet
  }

  def withTable[T](c: Case)(body: File => T): T = {
    val dir = Files.createTempDirectory("lecoreader").toFile
    try {
      for ((cols, i) <- c.files.zipWithIndex) {
        val w = new LecoFileWriter(new File(dir, f"part-$i%05d.leco"), Columns, c.enc, PartSize, c.zstd, c.groupRows)
        cols(0).indices.foreach(r => w.addRow(cols.map(_(r))))
        w.close()
      }
      body(dir)
    } finally {
      dir.listFiles().foreach(_.delete())
      dir.delete()
    }
  }

  /** The filters `LecoScanBuilder` accepted, and the rows the readers of all
    * part files emitted.
    */
  def read(dir: File, filters: Seq[Filter], columns: Seq[String]): (Array[Filter], Seq[Array[Long]]) = {
    val source  = new LecoDataSource
    val options = new CaseInsensitiveStringMap(Map("path" -> dir.getPath).asJava)
    val table   = source.getTable(source.inferSchema(options), Array.empty[Transform], options).asInstanceOf[SupportsRead]
    val builder = table.newScanBuilder(options).asInstanceOf[LecoScanBuilder]
    builder.pushFilters(filters.toArray)
    builder.pruneColumns(StructType(columns.map(StructField(_, LongType, nullable = false))))
    val batch   = builder.build().toBatch
    val factory = batch.createReaderFactory()
    val rows = batch.planInputPartitions().toSeq.flatMap { part =>
      val reader = factory.createReader(part)
      try Iterator.continually(reader).takeWhile(_.next()).map { r =>
        val row = r.get()
        Array.tabulate(columns.size)(row.getLong)
      }.toVector
      finally reader.close()
    }
    (builder.pushedFilters(), rows)
  }
}
