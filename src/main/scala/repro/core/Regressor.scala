package repro.core

/** A fitted model for one partition, `predict(j) = anchor + floor(theta1 * j)`
  * where `j` is the position *within* the partition, and the width of its
  * deltas.
  *
  * The anchor is the smallest `v(j) - floor(θ1·j)`, an exact `Long`, so every
  * delta `v(j) - predict(j)` is non-negative and the packed width is
  * `bitsFor(δmax − δmin)` — the paper's θ0-tweak, which centers deltas so
  * that φ = ⌈log2 L⌉ with L = |δmax| + |δmin|. The sums wrap and the width
  * reads them unsigned, so 64 bits hold the deltas of any input.
  */
final case class Fit(anchor: Long, theta1: Double, bitWidth: Int) {
  def predict(j: Int): Long = anchor + LineFit.floorAt(theta1, j)
}

/** The LeCo Regressor (§3.1): least-squares slope with the θ0 tweak.
  *
  * The classic LSM minimizes the l2 norm of the deltas; LeCo's objective is
  * the *bit width* of the max absolute delta (deltas are stored fixed-width).
  * Shifting the intercept only moves the delta window, so the intercept is
  * the minimum delta of the slope alone, making all deltas non-negative with
  * range `L = δmax − δmin`; the packed width `bitsFor(L)` then equals the
  * paper's minimized φ for this slope.
  */
object Regressor {

  /** Least-squares slope over positions `0..n-1` of `values(from until until)`,
    * anchored at the minimum delta.
    */
  def fitLinear(values: Array[Long], from: Int, until: Int): Fit =
    new LineFit().fit(values, from, until).toFit

  /** Exact delta width a linear fit would need on `values(from until until)` —
    * the Δ(v) function of §3.2.2, used by partitioners and tests.
    */
  def linearDeltaBits(values: Array[Long], from: Int, until: Int): Int =
    new LineFit().fit(values, from, until).width
}

/** The least-squares slope of one partition and the window of its deltas,
  * held in fields so that a caller fitting many partitions (the fixed-size
  * search) reuses one instance and allocates no [[Fit]] per partition.
  *
  * The loops carry the position as a `Double` counter (`x += 1.0`). It is
  * exact below 2^53, so `θ1·x` has the bits of `θ1·j` without an
  * int→double convert per value; θ1 is read into a local once.
  */
private[core] final class LineFit {
  private var theta1 = 0.0
  /** Smallest and largest `v(j) - floor(θ1·j)` of the last window, wrapped. */
  private var dMin = 0L
  private var dMax = 0L

  def width: Int = BitPack.bitsFor(dMax - dMin)
  def toFit: Fit = Fit(dMin, theta1, width)

  /** Least-squares θ1 over positions `0..n-1`, then its delta window. */
  def fit(values: Array[Long], from: Int, until: Int): this.type = {
    val n = until - from
    require(n >= 1, "empty partition")
    // LSM closed form; positions are 0..n-1 so the sums are analytic.
    val sumX  = n.toDouble * (n - 1) / 2.0
    val sumXX = (n - 1).toDouble * n * (2L * n - 1) / 6.0
    var sumY  = 0.0
    var sumXY = 0.0
    var x = 0.0
    var i = from
    while (i < until) {
      val y = values(i).toDouble
      sumY += y; sumXY += x * y
      x += 1.0
      i += 1
    }
    val denom = n * sumXX - sumX * sumX
    window(values, from, until, if (denom == 0) 0.0 else (n * sumXY - sumX * sumY) / denom)
  }

  /** Sets θ1 and the signed range of `values(from + j) - floor(θ1·j)`. */
  def window(values: Array[Long], from: Int, until: Int, t1: Double): this.type = {
    var mn = Long.MaxValue; var mx = Long.MinValue
    var x = 0.0
    var i = from
    while (i < until) {
      val d = values(i) - LineFit.floorAt(t1, x)
      if (d < mn) mn = d
      if (d > mx) mx = d
      x += 1.0
      i += 1
    }
    theta1 = t1; dMin = mn; dMax = mx
    this
  }
}

private[core] object LineFit {
  /** `floor(θ1·x)`, the slope's part of a prediction. θ1 = 0 (FOR) skips
    * the multiply; in a loop the JIT hoists the test, so a FOR loop runs
    * without it.
    */
  @inline def floorAt(t1: Double, x: Double): Long = if (t1 == 0.0) 0L else math.floor(t1 * x).toLong
}
