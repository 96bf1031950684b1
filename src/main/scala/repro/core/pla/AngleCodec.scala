package repro.core.pla

import repro.core._

/** LeCo-angle (§4.7): the angle/cone-based one-pass piecewise-linear
  * approximation used by time-series compressors, plugged in as LeCo's
  * partitioner. A global error bound `E = 2^(epsBits-1) − 1` is fixed up
  * front; a segment grows while some line through its first point stays
  * within ±E of every member (the feasible-slope cone intersection of
  * O'Rourke 1981). Each resulting partition is then encoded exactly like a
  * LeCo-var partition.
  *
  * The paper's finding reproduced here: a globally fixed ε cannot adapt to
  * data whose local spread varies, so LeCo-angle trails LeCo-var by 9–722%
  * in compression ratio and is far more hyper-parameter sensitive (Fig 15/16).
  */
final class AngleCodec(val epsBits: Int = 8) extends IntCodec {
  val name = "LeCo-angle"
  private val bound: Double = math.max(0L, (1L << (epsBits - 1)) - 1).toDouble

  def partition(values: Array[Long]): Partitions = {
    val n = values.length
    val starts = scala.collection.mutable.ArrayBuffer[Int]()
    var i0 = 0
    while (i0 < n) {
      starts += i0
      var lo = Double.NegativeInfinity
      var hi = Double.PositiveInfinity
      val v0 = values(i0).toDouble
      var j  = i0 + 1
      var open = true
      while (open && j < n) {
        val x   = (j - i0).toDouble
        val sLo = (values(j) - bound - v0) / x
        val sHi = (values(j) + bound - v0) / x
        val nLo = math.max(lo, sLo)
        val nHi = math.min(hi, sHi)
        if (nLo <= nHi) { lo = nLo; hi = nHi; j += 1 }
        else open = false
      }
      i0 = j
    }
    Partitions(starts.toArray, n)
  }

  def compress(values: Array[Long]): VariablePartitions[LecoPartition] =
    VariablePartitions.encode(values, partition(values))(LecoPartition.encoder(fit = true))
}
