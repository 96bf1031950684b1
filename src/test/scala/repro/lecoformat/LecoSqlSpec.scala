package repro.lecoformat

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.{ColumnarToRowExec, InputAdapter}
import org.apache.spark.sql.execution.datasources.v2.BatchScanExec
import repro.{Oracle, SparkSpec}

/** DataSourceV2 path: Spark SQL over `leco` tables, with DuckDB as the
  * result oracle — a wrong pushdown/pruning rewrite fails here, not just
  * "it ran".
  */
class LecoSqlSpec extends SparkSpec {

  private lazy val base: String = java.nio.file.Files.createTempDirectory("lecosql").toString

  private lazy val (dir, srcDf) = {
    import spark.implicits._
    val n = 30_000
    val r = new scala.util.Random(3)
    var t = 100L
    val rows = Seq.fill(n) { t += r.nextInt(4); (t, r.nextInt(1_000_000).toLong, r.nextInt(100).toLong) }
    val df = spark.sparkContext.parallelize(rows, 4).toDF("ts", "id", "grp")
    val d = s"$base/sql"
    LecoWriter.write(df, d, Encoding.LecoFix, partSize = 512, rowGroupRows = 4096)
    (d, df.cache())
  }

  private def leco = spark.read.format("leco").load(dir)

  test("schema inference finds the written columns as BIGINT") {
    assert(leco.schema.fieldNames.toSeq == Seq("ts", "id", "grp"))
    assert(leco.schema.fields.forall(_.dataType.typeName == "long"))
  }

  test("full scan row count matches the source") {
    assert(leco.count() == srcDf.count())
  }

  test("full scan content equals source (DuckDB oracle)") {
    leco.createOrReplaceTempView("leco_t")
    val out = spark.sql("SELECT ts, id, grp FROM leco_t")
    Oracle.assertEquivalent(out, "SELECT ts, id, grp FROM src", "src" -> srcDf)
  }

  test("a full scan is read as batches: ColumnarToRow sits above the leco BatchScan") {
    leco.createOrReplaceTempView("leco_t")
    val out = spark.sql("SELECT ts, id, grp FROM leco_t")
    assert(out.collect().length == srcDf.count())
    val plan = out.queryExecution.executedPlan
    val scans = plan.collect {
      case ColumnarToRowExec(InputAdapter(b: BatchScanExec)) => b
      case ColumnarToRowExec(b: BatchScanExec)               => b
    }
    assert(scans.exists(_.scan.isInstanceOf[LecoScan]), plan)
  }

  test("range filter with pushdown equals oracle") {
    leco.createOrReplaceTempView("leco_t")
    val out = spark.sql("SELECT id FROM leco_t WHERE ts > 5000 AND ts <= 20000")
    Oracle.assertEquivalent(out,
      "SELECT id FROM src WHERE CAST(ts AS BIGINT) > 5000 AND CAST(ts AS BIGINT) <= 20000", "src" -> srcDf)
  }

  test("equality filter equals oracle") {
    leco.createOrReplaceTempView("leco_t")
    val out = spark.sql("SELECT ts, id FROM leco_t WHERE grp = 42")
    Oracle.assertEquivalent(out, "SELECT ts, id FROM src WHERE CAST(grp AS BIGINT) = 42", "src" -> srcDf)
  }

  test("aggregation over the leco source equals oracle") {
    leco.createOrReplaceTempView("leco_t")
    val out = spark.sql(
      "SELECT grp, COUNT(*) AS cnt, SUM(id) AS sid FROM leco_t WHERE ts < 30000 GROUP BY grp")
    Oracle.assertEquivalent(out,
      "SELECT grp, COUNT(*) AS cnt, SUM(CAST(id AS BIGINT)) AS sid FROM src " +
      "WHERE CAST(ts AS BIGINT) < 30000 GROUP BY grp",
      "src" -> srcDf)
  }

  /** The scan predicates the executed plan says reached the reader. */
  private def scanOf(df: DataFrame): String = {
    val plan = df.queryExecution.executedPlan.toString
    "leco \\[[^\\]]*\\]".r.findFirstIn(plan).getOrElse(fail(s"no leco scan in $plan"))
  }

  test("a modulo window (BETWEEN) is pushed as one merged window and equals oracle") {
    leco.createOrReplaceTempView("leco_t")
    val out = spark.sql("SELECT id FROM leco_t WHERE ts % 1000 BETWEEN 10 AND 20")
    Oracle.assertEquivalent(out,
      "SELECT id FROM src WHERE CAST(ts AS BIGINT) % 1000 BETWEEN 10 AND 20", "src" -> srcDf)
    assert(scanOf(out) == "leco [ts: 10 <= ts % 1000 < 21]")
  }

  test("a one-sided modulo window is pushed, with the literal on either side, and equals oracle") {
    leco.createOrReplaceTempView("leco_t")
    for (where <- Seq("ts % 1000 >= 10", "10 <= ts % 1000")) {
      val out = spark.sql(s"SELECT id FROM leco_t WHERE $where")
      Oracle.assertEquivalent(out,
        s"SELECT id FROM src WHERE ${where.replace("ts", "CAST(ts AS BIGINT)")}", "src" -> srcDf)
      assert(scanOf(out) == "leco [ts: 10 <= ts % 1000 < 1000]", where)
    }
  }

  test("a modulo window and a range on one column are both pushed and equal oracle") {
    leco.createOrReplaceTempView("leco_t")
    val out = spark.sql("SELECT id FROM leco_t WHERE ts % 1000 BETWEEN 10 AND 20 AND ts > 5000")
    Oracle.assertEquivalent(out,
      "SELECT id FROM src WHERE CAST(ts AS BIGINT) % 1000 BETWEEN 10 AND 20 AND CAST(ts AS BIGINT) > 5000",
      "src" -> srcDf)
    val scan = scanOf(out)
    assert(scan.contains("ts: 10 <= ts % 1000 < 21") && scan.contains("ts: ts >= 5001"), scan)
  }

  test("unsupported predicate shapes (modulo) still return correct results") {
    leco.createOrReplaceTempView("leco_t")
    // A negative modulus and a non-literal modulus are not pushed to the reader.
    for ((where, oracleWhere) <- Seq(
           "ts % -1000 < 20" -> "CAST(ts AS BIGINT) % -1000 < 20",
           "ts % (grp + 1) < 3" -> "CAST(ts AS BIGINT) % (CAST(grp AS BIGINT) + 1) < 3")) {
      val out = spark.sql(s"SELECT id FROM leco_t WHERE $where")
      Oracle.assertEquivalent(out, s"SELECT id FROM src WHERE $oracleWhere", "src" -> srcDf)
      assert(scanOf(out) == "leco []", where)
    }
  }

  test("column pruning: selecting one column works") {
    val ids = leco.select("id")
    assert(ids.columns.toSeq == Seq("id"))
    assert(ids.count() == srcDf.count())
  }

  test("join between leco table and a Spark DataFrame equals oracle") {
    import spark.implicits._
    leco.createOrReplaceTempView("leco_t")
    val dims = (0L until 100L).map(g => (g, s"g$g")).toDF("grp", "name")
    dims.createOrReplaceTempView("dims")
    val out = spark.sql(
      """SELECT d.name AS name, COUNT(*) AS cnt
         FROM leco_t l JOIN dims d ON l.grp = d.grp
         WHERE l.ts < 10000 GROUP BY d.name""")
    Oracle.assertEquivalent(out,
      """SELECT d.name AS name, COUNT(*) AS cnt
         FROM src l JOIN dims d ON CAST(l.grp AS BIGINT) = CAST(d.grp AS BIGINT)
         WHERE CAST(l.ts AS BIGINT) < 10000 GROUP BY d.name""",
      "src" -> srcDf, "dims" -> dims)
  }
}
