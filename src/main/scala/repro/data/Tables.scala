package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** The nine multi-column tables of §4.5, as Spark DataFrames of integral
  * columns, each sorted by its primary-key column (the paper's setup: the
  * sort column induces partial serial order on correlated columns).
  *
  * The TPC-H tables are synthetic at TPC-H's row counts (SF 1: 6M lineitem
  * rows, 1.5M orders); TPC-DS-lite and the three "real-world" tables
  * (geo/stock/course_info) are synthetic analogues — see DESIGN.md "Dataset
  * substitutions". Decimals are scaled to integer cents, dates to days since
  * 1992-01-01 or day keys (the benchmark considers numerical columns only).
  * Every generator is deterministic in (sf, seed).
  */
object Tables {

  final case class TableSpec(name: String, df: DataFrame, sortCol: String)

  /** Cast every column to BIGINT and globally sort by `keys` into a few
    * range partitions — each partition becomes one (large) column chunk in
    * the executors, matching the paper's 10K-row-scale partitions rather
    * than shuffle-partition-sized slivers.
    */
  private def sortedLong(df: DataFrame, keys: String*): DataFrame = {
    val longDf = df.select(df.columns.map(c => col(c).cast(LongType).as(c)).toSeq: _*)
    longDf.repartitionByRange(4, keys.map(col): _*).sortWithinPartitions(keys.map(col): _*)
  }

  private def rows(perSf: Long, sf: Double): Long = math.max(1L, (perSf * sf).toLong)

  def lineitem(spark: SparkSession, sf: Double): DataFrame = {
    val nOrders = rows(1_500_000L, sf); val nPart = rows(200_000L, sf)
    spark.range(rows(6_000_000L, sf)).select(
      (rand(0) * nOrders + 1).cast(LongType) as "l_orderkey",
      (rand(1) * nPart + 1).cast(LongType) as "l_partkey",
      (rand(2) * 7 + 1).cast(LongType) as "l_linenumber",
      (rand(3) * 50 + 1).cast(LongType) as "l_quantity",
      (round(rand(4) * 90000 + 900, 2) * 100).cast(LongType) as "l_extendedprice",
      (round(rand(5) * 0.10, 2) * 100).cast(LongType) as "l_discount",
      (round(rand(6) * 0.08, 2) * 100).cast(LongType) as "l_tax",
      (rand(9) * 2557).cast(LongType) as "l_shipdate",
    )
  }

  def orders(spark: SparkSession, sf: Double): DataFrame =
    spark.range(1, rows(1_500_000L, sf) + 1).select(
      col("id") as "o_orderkey",
      (rand(1) * rows(150_000L, sf) + 1).cast(LongType) as "o_custkey",
      (round(rand(3) * 500000 + 1000, 2) * 100).cast(LongType) as "o_totalprice",
      (rand(4) * 2406).cast(LongType) as "o_orderdate",
    )

  def partsupp(spark: SparkSession, sf: Double, seed: Long = 21): DataFrame = {
    val nPart = math.max(1L, (200_000L * sf).toLong)
    spark.range(nPart * 4).select(
      (col("id") / 4 + 1).cast(LongType) as "ps_partkey",
      (col("id") % 4 * (nPart / 4) + col("id") / 4 % math.max(1L, nPart / 4) + 1).cast(LongType) as "ps_suppkey",
      (rand(seed) * 9999 + 1).cast(LongType) as "ps_availqty",
      (rand(seed + 1) * 100000 + 100).cast(LongType) as "ps_supplycost",
    )
  }

  /** TPC-DS inventory: (date_sk, item_sk, warehouse_sk) nested-sorted —
    * the paper's most "sorted" table.
    */
  def inventory(spark: SparkSession, sf: Double, seed: Long = 22): DataFrame = {
    val nItems = math.max(10L, (18_000L * sf * 10).toLong)
    val weeks  = 30L
    spark.range(weeks * nItems).select(
      (lit(2450815L) + col("id") / nItems * 7) as "inv_date_sk",
      (col("id") % nItems + 1) as "inv_item_sk",
      (col("id") % 5 + 1) as "inv_warehouse_sk",
      (rand(seed) * 1000).cast(LongType) as "inv_quantity_on_hand",
    )
  }

  def catalogSales(spark: SparkSession, sf: Double, seed: Long = 23): DataFrame = {
    val n = math.max(1000L, (1_400_000L * sf).toLong)
    spark.range(n).select(
      (lit(2450815L) + col("id") / 800) as "cs_sold_date_sk",
      (rand(seed) * 18000 + 1).cast(LongType) as "cs_item_sk",
      (rand(seed + 1) * 100 + 1).cast(LongType) as "cs_quantity",
      (rand(seed + 2) * 10000 + 100).cast(LongType) as "cs_wholesale_cost",
      (rand(seed + 3) * 30000 + 100).cast(LongType) as "cs_list_price",
      (col("id") % 100000 + 1) as "cs_order_number",
    )
  }

  /** TPC-DS date_dim: one row per day — every column is a near-deterministic
    * function of the sort key.
    */
  def dateDim(spark: SparkSession, sf: Double): DataFrame = {
    val n = math.max(365L, (73_000L * math.max(sf, 0.05)).toLong)
    spark.range(n).select(
      (lit(2415022L) + col("id")) as "d_date_sk",
      (lit(1900) + col("id") / 365) as "d_year",
      (col("id") % 365 / 31 + 1) as "d_moy",
      (col("id") % 31 + 1) as "d_dom",
      (col("id") % 365 / 92 + 1) as "d_qoy",
      (col("id") % 7) as "d_dow",
    )
  }

  /** GeoNames-like: sequential id, clustered lat/lon (1e4 fixed point),
    * zipf-ish population.
    */
  def geo(spark: SparkSession, sf: Double, seed: Long = 24): DataFrame = {
    val n = math.max(1000L, (1_000_000L * sf).toLong)
    spark.range(n).select(
      (col("id") * 3 + 1000000) as "g_id",
      ((rand(seed) * 40 + (col("id") % 50)) * 10000).cast(LongType) as "g_lat",
      ((rand(seed + 1) * 60 - (col("id") % 70)) * 10000).cast(LongType) as "g_lon",
      (rand(seed + 2) * 3000).cast(LongType) as "g_elevation",
      pow(lit(10.0), rand(seed + 3) * 5).cast(LongType) as "g_population",
    )
  }

  /** HistData-like FX ticks: sorted timestamps, random-walk OHLC (1e5 fixed
    * point), bursty volume.
    */
  def stock(spark: SparkSession, sf: Double, seed: Long = 25): DataFrame = {
    val n = math.max(1000L, (600_000L * sf).toLong)
    val base = spark.range(n).select(
      (lit(1_230_000_000L) + col("id") * 60 + (rand(seed) * 10).cast(LongType)) as "s_ts",
      col("id"),
    )
    base.select(
      col("s_ts"),
      (lit(118000L) + (col("id") % 977) * 3 - (col("id") % 311)) as "s_open",
      (lit(118050L) + (col("id") % 977) * 3 - (col("id") % 307)) as "s_high",
      (lit(117950L) + (col("id") % 977) * 3 - (col("id") % 313)) as "s_low",
      (lit(118010L) + (col("id") % 977) * 3 - (col("id") % 317)) as "s_close",
      (rand(seed + 1) * 500).cast(LongType) as "s_volume",
    )
  }

  /** Udemy-courses-like: id plus weakly correlated engagement counters. */
  def courseInfo(spark: SparkSession, sf: Double, seed: Long = 26): DataFrame = {
    val n = math.max(1000L, (100_000L * math.max(sf, 0.1)).toLong)
    spark.range(n).select(
      (col("id") * 7 + 10000) as "c_id",
      (rand(seed) * 200).cast(LongType) * 5 as "c_price",
      (col("id") / 3 + (rand(seed + 1) * 5000).cast(LongType)) as "c_subscribers",
      (col("id") / 30 + (rand(seed + 2) * 500).cast(LongType)) as "c_reviews",
      (rand(seed + 3) * 400 + 10).cast(LongType) as "c_lectures",
      (rand(seed + 4) * 3000 + 30).cast(LongType) as "c_duration_min",
    )
  }

  /** The full §4.5 registry at a scale factor, each table sorted by its
    * primary key (secondary keys break ties, as in TPC data generation).
    */
  def all(spark: SparkSession, sf: Double): Seq[TableSpec] = Seq(
    TableSpec("lineitem",      sortedLong(lineitem(spark, sf), "l_orderkey", "l_linenumber"), "l_orderkey"),
    TableSpec("partsupp",      sortedLong(partsupp(spark, sf), "ps_partkey", "ps_suppkey"),   "ps_partkey"),
    TableSpec("orders",        sortedLong(orders(spark, sf), "o_orderkey"),                   "o_orderkey"),
    TableSpec("inventory",     sortedLong(inventory(spark, sf), "inv_date_sk", "inv_item_sk"),"inv_date_sk"),
    TableSpec("catalog_sales", sortedLong(catalogSales(spark, sf), "cs_sold_date_sk", "cs_order_number"), "cs_sold_date_sk"),
    TableSpec("date_dim",      sortedLong(dateDim(spark, sf), "d_date_sk"),                   "d_date_sk"),
    TableSpec("geo",           sortedLong(geo(spark, sf), "g_id"),                            "g_id"),
    TableSpec("stock",         sortedLong(stock(spark, sf), "s_ts"),                          "s_ts"),
    TableSpec("course_info",   sortedLong(courseInfo(spark, sf), "c_id"),                     "c_id"),
  )
}
