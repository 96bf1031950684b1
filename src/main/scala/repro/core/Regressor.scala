package repro.core

/** A fitted model for one partition: `predict(i) = floor(theta0 + theta1 * i)`
  * where `i` is the position *within* the partition.
  *
  * Encoding stores `delta(i) = v(i) - predict(i)` biased to be non-negative
  * (the minimum delta is folded into `theta0`, see [[Regressor.fitLinear]]),
  * so the packed width is `bitsFor(deltaMax - deltaMin)` — identical to the
  * paper's θ0-tweak, which centers deltas so that
  * φ = ⌈log2 L⌉ with L = |δmax| + |δmin|.
  */
final case class LinearModel(theta0: Double, theta1: Double) {
  def predict(i: Int): Long = math.floor(theta0 + theta1 * i).toLong
}

/** Result of fitting one partition: the (bias-folded) model and the width of
  * the resulting non-negative delta array.
  */
final case class Fit(model: LinearModel, bitWidth: Int)

/** The LeCo Regressor (§3.1): least-squares linear fit with the θ0 tweak.
  *
  * The classic LSM minimizes the l2 norm of the deltas; LeCo's objective is
  * the *bit width* of the max absolute delta (deltas are stored fixed-width).
  * Shifting the intercept only moves the delta window, so after LSM we fold
  * the minimum delta into θ0, making all deltas non-negative with range
  * `L = δmax − δmin`; the packed width `bitsFor(L)` then equals the paper's
  * minimized φ for this slope.
  */
object Regressor {

  /** Least-squares slope/intercept over positions `0..n-1` of
    * `values(from until until)`, then fold the min delta into θ0.
    */
  def fitLinear(values: Array[Long], from: Int, until: Int): Fit =
    new LineFit().fit(values, from, until).toFit

  /** Exact frame min/max (FOR must NOT round the reference through a Double:
    * values above 2^53 would corrupt the offsets).
    */
  def minMax(values: Array[Long], from: Int, until: Int): (Long, Long) = {
    var mn = Long.MaxValue; var mx = Long.MinValue
    var i = from
    while (i < until) { val v = values(i); if (v < mn) mn = v; if (v > mx) mx = v; i += 1 }
    (mn, mx)
  }

  /** The FOR model: a horizontal line at the frame minimum (§2). NOTE the
    * Double θ0 is only the *model view*; FOR encoders must take the exact
    * reference from [[minMax]].
    */
  def fitConstant(values: Array[Long], from: Int, until: Int): Fit = {
    val (mn, mx) = minMax(values, from, until)
    Fit(LinearModel(mn.toDouble, 0.0), BitPack.bitsFor(mx - mn))
  }

  /** Given a candidate model, fold the min delta into θ0 and report the
    * resulting non-negative delta width. The fold is exact only in exact
    * arithmetic: once folded, a prediction within an ulp of an integer can
    * land one off, which `LecoPartition.encodeFit` catches by refolding or
    * rejecting the fit.
    */
  def refit(m: LinearModel, values: Array[Long], from: Int, until: Int): Fit =
    new LineFit().window(values, from, until, m.theta0, m.theta1).toFit

  /** Exact delta width a linear fit would need on `values(from until until)` —
    * the Δ(v) function of §3.2.2, used by partitioners and tests.
    */
  def linearDeltaBits(values: Array[Long], from: Int, until: Int): Int =
    new LineFit().fit(values, from, until).width
}

/** The least-squares line of one partition and the window of its deltas,
  * held in fields so that a caller fitting many partitions (the fixed-size
  * search) reuses one instance and allocates no [[Fit]] per partition.
  *
  * The loops carry the position as a `Double` counter (`x += 1.0`). It is
  * exact below 2^53, so `θ0 + θ1·x` has the bits of `θ0 + θ1·i` without an
  * int→double convert per value; θ is read into locals once.
  */
private[core] final class LineFit {
  private var theta0 = 0.0
  private var theta1 = 0.0
  /** Smallest and largest `v(i) - floor(θ0 + θ1·i)` of the last window. */
  private var dMin = 0L
  private var dMax = 0L

  def width: Int = BitPack.bitsFor(dMax - dMin)
  /** The model with δmin folded into θ0, so every delta is non-negative. */
  def toFit: Fit = Fit(LinearModel(theta0 + dMin, theta1), width)

  /** Least-squares θ over positions `0..n-1`, then its delta window. */
  def fit(values: Array[Long], from: Int, until: Int): this.type = {
    val n = until - from
    require(n >= 1, "empty partition")
    if (n == 1) {
      theta0 = values(from).toDouble; theta1 = 0.0; dMin = 0L; dMax = 0L
      return this
    }
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
    val t1    = if (denom == 0) 0.0 else (n * sumXY - sumX * sumY) / denom
    window(values, from, until, (sumY - t1 * sumX) / n, t1)
  }

  /** Sets θ and the range of `values(from + j) - floor(θ0 + θ1·j)`. */
  def window(values: Array[Long], from: Int, until: Int, t0: Double, t1: Double): this.type = {
    var mn = Long.MaxValue; var mx = Long.MinValue
    var x = 0.0
    var i = from
    while (i < until) {
      val d = values(i) - math.floor(t0 + t1 * x).toLong
      if (d < mn) mn = d
      if (d > mx) mx = d
      x += 1.0
      i += 1
    }
    theta0 = t0; theta1 = t1; dMin = mn; dMax = mx
    this
  }
}
