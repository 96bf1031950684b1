package repro

import repro.SparkSpec

class SynthDataSpec extends SparkSpec {

  test("lineitem generates the expected columns at SF=0.001") {
    val df = SynthData.lineitem(spark, 0.001)
    assert(df.columns.length == 10)
    assert(df.count() == 6000)
  }

  test("orders keys are dense 1..n") {
    val df = SynthData.orders(spark, 0.001)
    val keys = df.select("o_orderkey").collect().map(_.getLong(0))
    assert(keys.min == 1 && keys.max == keys.length)
  }
}
