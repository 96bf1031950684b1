package repro.data

import repro.SparkSpec

class TablesSpec extends SparkSpec {

  test("lineitem generates the expected columns at SF=0.001") {
    val df = Tables.lineitem(spark, 0.001)
    assert(df.columns.toSeq == Seq("l_orderkey", "l_partkey", "l_linenumber", "l_quantity", "l_extendedprice",
                                   "l_discount", "l_tax", "l_shipdate"))
    assert(df.count() == 6000)
  }

  test("orders keys are dense 1..n") {
    val df = Tables.orders(spark, 0.001)
    val keys = df.select("o_orderkey").collect().map(_.getLong(0))
    assert(keys.min == 1 && keys.max == keys.length)
  }
}
