package repro.lecoformat

import java.io.File
import java.nio.file.Files
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.connector.catalog.SupportsRead
import org.apache.spark.sql.connector.expressions.{Expression, Expressions, GeneralScalarExpression, Literal, NamedReference, Transform}
import org.apache.spark.sql.connector.expressions.filter.Predicate
import org.apache.spark.sql.connector.expressions.{filter => v2}
import org.apache.spark.sql.connector.read.PartitionReader
import org.apache.spark.sql.sources._
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.ByteLayoutSpec

/** The DataSourceV2 read path driven without a SparkSession, the way a
  * Spark task calls it: `LecoDataSource` → `LecoScanBuilder` (pushed V1
  * filters or V2 predicates, pruned columns) → `LecoBatchReader` and its
  * row adapter `LecoPartitionReader`. Both must emit exactly the rows within
  * the pushed filters, in file order.
  */
class LecoReaderSpec extends AnyFunSuite {
  import LecoReaderSpec._

  test("a fractional pushed literal is not truncated: ts < 5.5 keeps the ts = 5 rows") {
    val ts = Array.tabulate(40)(i => (i % 10).toLong)
    withTable(Case(Encoding.LecoFix, zstd = false, groupRows = 16, Seq(Array(ts, ts, ts)), Nil, Nil, Seq("ts"), 0L)) { dir =>
      val (_, _, rows, batchRows) = read(dir, Seq(LessThan("ts", 5.5)), Nil, Seq("ts"))
      assert(rows.count(_(0) == 5L) == ts.count(_ == 5L))
      assert(batchRows.count(_(0) == 5L) == ts.count(_ == 5L))
    }
  }

  test("the reader emits exactly the source rows within the pushed ranges, in file order") {
    val seen = scala.collection.mutable.Set[String]()
    ByteLayoutSpec.check(Prop.forAll(cases) { c =>
      withTable(c) { dir =>
        val (pushed, pushedV2, rows, batchRows) = read(dir, c.filters, c.predicates, c.columns)
        val source = c.files.flatMap(cols => cols(0).indices.map(r => cols.map(_(r))))
        val within = (row: Array[Long]) => pushed.forall(holds(_, row)) && pushedV2.forall(holds(_, row))
        val want = source.filter(within).map(row => c.columns.map(col => row(Columns.indexOf(col))))
        seen ++= paths(c, pushed, pushedV2)
        pushed.length == c.filters.length && pushedV2.toSeq == c.predicates.filter(positiveModuli) &&
          rows.map(_.toSeq) == want && batchRows.map(_.toSeq) == want
      }
    })
    // the branches the generated cases reach: zone skips, the all-rows path,
    // both branches of `materialize`, whole groups, narrowing, no columns,
    // and a `col % m` window reaching a row group
    assert(seen == Set("zone skip", "all rows", "gather", "decode", "every row", "narrowed", "no columns", "window"))
  }
}

object LecoReaderSpec {
  val Columns = Seq("ts", "id", "grp")
  val PartSize = 64

  /** Part files of `(ts, id, grp)` columns, written with `enc`; the reader
    * is asked for `columns` under V1 `filters` or, when there are any, V2
    * `predicates`.
    */
  final case class Case(enc: Encoding, zstd: Boolean, groupRows: Int, files: Seq[Array[Array[Long]]],
                        filters: Seq[Filter], predicates: Seq[Predicate], columns: Seq[String], seed: Long) {
    override def toString: String =
      s"$enc zstd=$zstd groupRows=$groupRows fileRows=${files.map(_(0).length)} seed=$seed " +
        s"filters=${filters.mkString(", ")} predicates=${predicates.mkString(", ")} columns=$columns"
  }

  /** Almost-sorted `ts` (wrapping past `Long.MaxValue`), random `id` over
    * the full signed range with `Long.MinValue` and `Long.MaxValue` mixed in,
    * and low-cardinality `grp`.
    */
  private def table(rows: Seq[Int], seed: Long): Seq[Array[Array[Long]]] = {
    val r = new scala.util.Random(seed)
    var t = r.nextLong()
    rows.map { n =>
      val ts = Array.fill(n) { t += r.nextInt(5); t }
      val id = Array.fill(n)(r.nextInt(20) match {
        case 0 => Long.MinValue
        case 1 => Long.MaxValue
        case _ => r.nextLong()
      })
      Array(ts, id, Array.fill(n)(r.nextInt(10).toLong))
    }
  }

  /** An integral literal, boxed as Spark pushes it. */
  private def lit(v: Long): Any = if (v.isValidInt) Int.box(v.toInt) else Long.box(v)

  /** Literals at the extremes or next to `vals`: empty, whole-table and partial ranges. */
  private def literalNear(vals: Array[Long]): Gen[Long] = {
    val near = if (vals.isEmpty) Gen.const(0L) else Gen.oneOf(vals.toIndexedSeq).flatMap(v => Gen.oneOf(v - 1, v, v + 1))
    Gen.frequency(1 -> Gen.oneOf(Long.MinValue, Long.MaxValue), 4 -> near)
  }

  /** A comparison on `col` with literals at the extremes or next to its values. */
  private def filterOn(col: String, vals: Array[Long]): Gen[Filter] = {
    val v = literalNear(vals)
    Gen.oneOf(
      v.map(x => EqualTo(col, lit(x))),
      v.map(x => GreaterThan(col, lit(x))),
      v.map(x => GreaterThanOrEqual(col, lit(x))),
      v.map(x => LessThan(col, lit(x))),
      v.map(x => LessThanOrEqual(col, lit(x))),
      Gen.zip(v, v).map { case (lo, hi) => And(GreaterThanOrEqual(col, lit(lo)), LessThanOrEqual(col, lit(hi))) })
  }

  /** `l op r` as Spark's V2 predicate. */
  private def cmp(op: String, l: Expression, r: Expression): Predicate = new Predicate(op, Array(l, r))
  private def litV2(v: Long): Expression = Expressions.literal(lit(v))
  private val ops = Gen.oneOf("=", "<", "<=", ">", ">=")
  private val flip = Map("=" -> "=", "<" -> ">", "<=" -> ">=", ">" -> "<", ">=" -> "<=")

  /** `term op v`, with the literal on either side. */
  private def compare(term: Expression, op: String, v: Long): Gen[Predicate] =
    Gen.oneOf(cmp(op, term, litV2(v)), cmp(flip(op), litV2(v), term))

  /** A V2 comparison of `col` with a literal near its values. */
  private def rangeOn(col: String, vals: Array[Long]): Gen[Predicate] =
    Gen.zip(ops, literalNear(vals)).flatMap { case (op, v) => compare(Expressions.column(col), op, v) }

  /** `col % m` compared with literals in and around `(-m, m)`: one-sided, or
    * two-sided as two predicates or one `AND`. A negative `m` is not pushed.
    */
  private def windowOn(col: String): Gen[Seq[Predicate]] = for {
    m     <- Gen.frequency(3 -> Gen.choose(2L, 50L), 3 -> Gen.oneOf(100L, 1000L, 86400L), 1 -> Gen.choose(1L, 1L << 20))
    sign  <- Gen.frequency(6 -> 1L, 1 -> -1L)
    term   = new GeneralScalarExpression("%", Array(Expressions.column(col), litV2(sign * m)))
    t      = Gen.frequency(8 -> Gen.choose(-m - 1, m + 1), 1 -> Gen.oneOf(Long.MinValue, Long.MaxValue))
    one   <- Gen.zip(ops, t).flatMap { case (op, v) => compare(term, op, v) }
    lower <- Gen.zip(Gen.oneOf(">", ">="), t).flatMap { case (op, v) => compare(term, op, v) }
    upper <- Gen.zip(Gen.oneOf("<", "<="), t).flatMap { case (op, v) => compare(term, op, v) }
    shape <- Gen.oneOf(Seq(one), Seq(lower, upper), Seq(new v2.And(lower, upper)))
  } yield shape

  /** V2 predicates on `col`: a range, a window, or both. */
  private def predicatesOn(col: String, vals: Array[Long]): Gen[Seq[Predicate]] =
    Gen.oneOf(rangeOn(col, vals).map(Seq(_)), windowOn(col),
              Gen.zip(rangeOn(col, vals), windowOn(col)).map { case (r, w) => r +: w })

  val cases: Gen[Case] = for {
    enc       <- Gen.oneOf(Encoding.Default, Encoding.For, Encoding.LecoFix)
    zstd      <- Gen.oneOf(false, true)
    groupRows <- Gen.choose(32, 400)
    rows      <- Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.choose(0, 1500)))
    seed      <- Gen.long
    files      = table(rows, seed)
    valuesOf   = (c: String) => files.flatMap(_(Columns.indexOf(c))).toArray
    filtered  <- Gen.choose(0, 2).flatMap(Gen.pick(_, Columns))
    v2Pushed  <- Gen.oneOf(false, true)
    filters   <- if (v2Pushed) Gen.const(Nil)
                 else Gen.sequence[List[Filter], Filter](filtered.map(c => filterOn(c, valuesOf(c))))
    preds     <- if (!v2Pushed) Gen.const(Nil)
                 else Gen.sequence[List[Seq[Predicate]], Seq[Predicate]](filtered.map(c => predicatesOn(c, valuesOf(c))))
    columns   <- Gen.choose(0, 3).flatMap(Gen.pick(_, Columns))
  } yield Case(enc, zstd, groupRows, files, filters, preds.flatten, columns.toSeq, seed)

  /** No `%` in `p` has a modulus below 1. */
  def positiveModuli(p: Expression): Boolean = p match {
    case g: GeneralScalarExpression if g.name == "%" =>
      g.children()(1).asInstanceOf[Literal[_]].value.asInstanceOf[Number].longValue > 0
    case _ => p.children.forall(positiveModuli)
  }

  /** A V2 predicate over `row`, evaluated with the JVM's `%` (Spark's). */
  def holds(p: Predicate, row: Array[Long]): Boolean = {
    def value(e: Expression): Long = (e: @unchecked) match {
      case r: NamedReference => row(Columns.indexOf(r.fieldNames()(0)))
      case l: Literal[_]     => l.value.asInstanceOf[Number].longValue
      case g: GeneralScalarExpression if g.name == "%" => value(g.children()(0)) % value(g.children()(1))
    }
    p match {
      case a: v2.And => holds(a.left, row) && holds(a.right, row)
      case _ =>
        val (l, r) = (value(p.children()(0)), value(p.children()(1)))
        p.name match {
          case "="  => l == r
          case "<"  => l < r
          case "<=" => l <= r
          case ">"  => l > r
          case ">=" => l >= r
        }
    }
  }

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
  private def paths(c: Case, pushed: Array[Filter], pushedV2: Array[Predicate]): Set[String] = {
    val preds = LecoScanBuilder.translate(pushedV2.toSeq ++ pushed.flatMap(LecoScanBuilder.toV2))
    val groups = for (cols <- c.files; from <- cols(0).indices by c.groupRows)
      yield cols.map(_.slice(from, from + c.groupRows))
    groups.flatMap { g =>
      val n = g(0).length
      val k = (0 until n).count { r =>
        val row = g.map(_(r)); pushed.forall(holds(_, row)) && pushedV2.forall(holds(_, row))
      }
      val zoneSkip = preds.exists { case (col, p) =>
        val vals = g(Columns.indexOf(col)); !p.mayMatch(vals.min, vals.max)
      }
      Seq(
        Option.when(zoneSkip)("zone skip"),
        Option.when(preds.isEmpty)("all rows"),
        Option.when(preds.nonEmpty && k == n)("every row"),
        Option.when(preds.size >= 2 && !zoneSkip && k > 0)("narrowed"),
        Option.when(preds.exists(_._2.isInstanceOf[TimeOfDayPredicate]) && !zoneSkip)("window"),
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

  /** The V1 filters and V2 predicates `LecoScanBuilder` accepted, the rows
    * the row readers of all part files emitted, and the rows of the batches
    * their columnar readers emitted. Every part file must be read columnar
    * and every batch must hold a row. The predicates are pushed when there
    * are any, else the filters (whose V2 forms are not reported).
    */
  def read(dir: File, filters: Seq[Filter], predicates: Seq[Predicate], columns: Seq[String])
      : (Array[Filter], Array[Predicate], Seq[Array[Long]], Seq[Array[Long]]) = {
    val source  = new LecoDataSource
    val options = new CaseInsensitiveStringMap(Map("path" -> dir.getPath).asJava)
    val table   = source.getTable(source.inferSchema(options), Array.empty[Transform], options).asInstanceOf[SupportsRead]
    val builder = table.newScanBuilder(options).asInstanceOf[LecoScanBuilder]
    if (predicates.nonEmpty) builder.pushPredicates(predicates.toArray) else builder.pushFilters(filters.toArray)
    builder.pruneColumns(StructType(columns.map(StructField(_, LongType, nullable = false))))
    val batch   = builder.build().toBatch
    val factory = batch.createReaderFactory()
    val parts   = batch.planInputPartitions().toSeq
    val rows = parts.flatMap { part =>
      drain(factory.createReader(part))(row => Seq(Array.tabulate(columns.size)(row.getLong)))
    }
    val batchRows = parts.flatMap { part =>
      assert(factory.supportColumnarReads(part), s"$part is not read columnar")
      drain(factory.createColumnarReader(part)) { b =>
        assert(b.numRows > 0, s"an empty batch from $part")
        (0 until b.numRows).map(r => Array.tabulate(columns.size)(c => b.column(c).getLong(r)))
      }
    }
    (builder.pushedFilters(), if (predicates.nonEmpty) builder.pushedPredicates() else Array.empty, rows, batchRows)
  }

  /** What `take` makes of each item `reader` emits, in order; a batch is
    * taken apart before the next one replaces it.
    */
  private def drain[T, R](reader: PartitionReader[T])(take: T => Seq[R]): Vector[R] =
    try Iterator.continually(reader).takeWhile(_.next()).flatMap(r => take(r.get())).toVector
    finally reader.close()
}
