package repro.core

/** A fitted model for one partition, `predict(j) = anchor + ((slope·j + phase) >> shift)`
  * where `j` is the position *within* the partition, and the width of its
  * deltas.
  *
  * `slope·2^-shift` is the least-squares θ1 in fixed point, and `phase`, in
  * `[0, 2^shift)`, is the fraction the paper's θ0 carried inside the floor.
  * The anchor is the smallest `v(j) - ((slope·j + phase) >> shift)`, an exact
  * `Long`, so every delta is non-negative and the packed width is
  * `bitsFor(δmax − δmin)` — the paper's θ0-tweak, which centers deltas so
  * that φ = ⌈log2 L⌉ with L = |δmax| + |δmin|. The sums wrap and the width
  * reads them unsigned, so 64 bits hold the deltas of any input.
  */
final case class Fit(anchor: Long, slope: Long, shift: Int, phase: Long, bitWidth: Int) {
  def predict(j: Int): Long = anchor + ((slope * j + phase) >> shift)
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
    * in fixed point with its phase, anchored at the minimum delta: the model
    * `LecoPartition.encode` writes.
    */
  def fitLinear(values: Array[Long], from: Int, until: Int): Fit =
    new LineFit().fit(values, from, until).toFit
}

/** The fit and delta window of one partition under the integer model of
  * [[Fit]], held in fields so that a caller fitting many partitions (the
  * fixed-size search, an encoder) reuses one instance and allocates nothing
  * per partition. With `keepDeltas`, the window also leaves the wrapped
  * deltas `v(j) - ((slope·j + phase) >> shift)` in `deltas`, and
  * [[toPartition]] packs them: encode is one pass over the values, then one
  * over the deltas.
  *
  * The least-squares sums are taken per 16-value block and the blocks are
  * combined in order. [[LineFit.blockSums]] takes the blocks of a whole
  * sample once, so a size search sums each value once, not once per
  * candidate size, and still gets the slope `encode` gets.
  */
private[core] final class LineFit(keepDeltas: Boolean = false) {
  import LineFit._

  private var slope = 0L
  private var shift = 0
  private var phase = 0L
  /** Smallest and largest delta of the last window, wrapped. */
  private var dMin = 0L
  private var dMax = 0L
  /** With `keepDeltas`, the deltas of the last window at `0 until len`; grows to the longest partition. */
  private var deltas: Array[Long] = Array.emptyLongArray
  /** The last block's Σy and Σi·y, from [[sumBlock]]. */
  private var by  = 0.0
  private var bxy = 0.0
  /** What `fit` derives from the partition length alone, for partitions
    * of `termsLen` values: the size search and an encoder fit many
    * partitions of one length.
    */
  private var termsLen = 0
  private var sumX     = 0.0
  private var sumXX    = 0.0
  private var denom    = 0.0
  private var limit    = 0L
  private var top      = 0

  def width: Int = BitPack.bitsFor(dMax - dMin)
  /** The header the last window's partition is written with. */
  def headerBytes: Int = LecoPartition.headerBytes(slope)
  def toFit: Fit = Fit(dMin, slope, shift, phase, width)

  /** The partition of the last window of `len` values, its deltas packed above the anchor. */
  def toPartition(len: Int): LecoPartition = {
    require(keepDeltas, "a LineFit without deltas cannot encode")
    val b = width
    val out = new BitPack.Writer(new Array[Long](BitPack.wordsFor(len, b)), b)
    var j = 0
    while (j < len) { out.put(deltas(j) - dMin); j += 1 }
    LecoPartition(dMin, slope, shift, phase, b, len, out.finish())
  }

  /** Least-squares θ1 over positions `0..n-1`, in fixed point, then its
    * window. `blocks`, when given, are `values`' [[LineFit.blockSums]].
    */
  def fit(values: Array[Long], from: Int, until: Int, blocks: BlockSums = null): this.type = {
    val n = until - from
    require(n >= 1, "empty partition")
    if (n != termsLen) {
      // LSM closed form; positions are 0..n-1 so the sums over them are analytic.
      sumX  = n.toDouble * (n - 1) / 2.0
      sumXX = (n - 1).toDouble * n * (2L * n - 1) / 6.0
      denom = n * sumXX - sumX * sumX
      limit = slopeLimit(n)
      top   = 63 - java.lang.Long.numberOfLeadingZeros(limit) // floor(log2 limit)
      termsLen = n
    }
    var sumY  = 0.0
    var sumXY = 0.0
    var b = from
    if (blocks != null && from % Block == 0) { // whole blocks: their sums are in `blocks`
      val wholeEnd = from + (n & -Block)
      while (b < wholeEnd) {
        val y = blocks.y(b >> 4)
        sumY += y
        sumXY += (b - from).toDouble * y + blocks.xy(b >> 4)
        b += Block
      }
    }
    while (b < until) {
      val count = math.min(Block, until - b)
      sumBlock(values, b, count)
      sumY += by
      sumXY += (b - from).toDouble * by + bxy
      b += count
    }
    val t1 = if (denom == 0) 0.0 else (n * sumXY - sumX * sumY) / denom
    // θ1 in fixed point: the most fractional bits, up to one, that keep |m| within the limit
    val s = if (!(math.abs(t1) > 0)) 0 else math.max(0, math.min(62, top - Math.getExponent(t1) - 1))
    val scale = java.lang.Double.longBitsToDouble((1023L + s) << 52) // 2^s, exactly
    val m = math.max(-limit, math.min(limit, Math.round(t1 * scale))) // saturates past 2^48 per position
    window(values, from, until, m, if (m == 0) 0 else s)
  }

  /** Σy and Σi·y of `values(start until start + count)` into `by`, `bxy`;
    * a full block is summed as a fixed tree.
    */
  private def sumBlock(values: Array[Long], start: Int, count: Int): Unit =
    if (count == Block) {
      val y0  = values(start).toDouble;      val y1  = values(start + 1).toDouble
      val y2  = values(start + 2).toDouble;  val y3  = values(start + 3).toDouble
      val y4  = values(start + 4).toDouble;  val y5  = values(start + 5).toDouble
      val y6  = values(start + 6).toDouble;  val y7  = values(start + 7).toDouble
      val y8  = values(start + 8).toDouble;  val y9  = values(start + 9).toDouble
      val y10 = values(start + 10).toDouble; val y11 = values(start + 11).toDouble
      val y12 = values(start + 12).toDouble; val y13 = values(start + 13).toDouble
      val y14 = values(start + 14).toDouble; val y15 = values(start + 15).toDouble
      by = (((y0 + y1) + (y2 + y3)) + ((y4 + y5) + (y6 + y7))) +
           (((y8 + y9) + (y10 + y11)) + ((y12 + y13) + (y14 + y15)))
      bxy = (((y1 + 2.0 * y2) + (3.0 * y3 + 4.0 * y4)) + ((5.0 * y5 + 6.0 * y6) + (7.0 * y7 + 8.0 * y8))) +
            (((9.0 * y9 + 10.0 * y10) + (11.0 * y11 + 12.0 * y12)) + ((13.0 * y13 + 14.0 * y14) + 15.0 * y15))
    } else {
      var y = 0.0; var xy = 0.0
      var i = 0
      while (i < count) { val a = values(start + i).toDouble; y += a; xy += i * a; i += 1 }
      by = y; bxy = xy
    }

  /** Sets the model to slope `m`, shift `s` and the phase that helps, and
    * the window of `values(from + j) - ((m·j + phase) >> s)`, in one pass;
    * a second runs only where the range is a power of two, which is where
    * a phase can narrow the width.
    */
  def window(values: Array[Long], from: Int, until: Int, m: Long, s: Int): this.type = {
    if (keepDeltas) rangeAndDeltas(values, from, until, m, s) else range(values, from, until, m, s)
    slope = m; shift = s; phase = 0L
    val r = dMax - dMin
    if (s > 0 && r != 0 && (r & (r - 1)) == 0) choosePhase(values, from, until - from)
    this
  }

  // The two window loops. Each takes its extremes with Math.min/Math.max, not
  // a branch per extreme: a new extreme comes in no pattern.

  /** `dMin` and `dMax` of the window alone: the size search's loop. */
  private def range(values: Array[Long], from: Int, until: Int, m: Long, s: Int): Unit = {
    var mn = Long.MaxValue; var mx = Long.MinValue
    var acc = 0L
    var i = from
    while (i < until) {
      val d = values(i) - (acc >> s)
      mn = Math.min(mn, d); mx = Math.max(mx, d)
      acc += m
      i += 1
    }
    dMin = mn; dMax = mx
  }

  /** `dMin` and `dMax`, and the deltas into `deltas`: the encoder's loop. */
  private def rangeAndDeltas(values: Array[Long], from: Int, until: Int, m: Long, s: Int): Unit = {
    val n = until - from
    if (deltas.length < n) deltas = new Array[Long](math.max(n, 2 * deltas.length))
    val ds = deltas
    var mn = Long.MaxValue; var mx = Long.MinValue
    var acc = 0L
    var j = 0
    while (j < n) {
      val d = values(from + j) - (acc >> s)
      ds(j) = d
      mn = Math.min(mn, d); mx = Math.max(mx, d)
      acc += m
      j += 1
    }
    dMin = mn; dMax = mx
  }

  /** With phase 0, delta `j` is `d(j) = v(j) - q(j)` where `m·j = q(j)·2^s + f(j)`.
    * A phase φ moves exactly the positions with `f(j) >= 2^s − φ` down by one.
    * Every position at δmax moves and none at δmin does when
    * `2^s − fmax <= φ < 2^s − fmin`, where fmax is the smallest fraction at
    * δmax and fmin the largest at δmin; the range then drops by one, and so
    * does the width, since the range is a power of two. φ is rounded up to
    * a multiple of the layout's phase step.
    */
  private def choosePhase(values: Array[Long], from: Int, n: Int): Unit = {
    val m = slope; val s = shift
    val mask = (1L << s) - 1
    var fAtMax = Long.MaxValue; var fAtMin = -1L
    var acc = 0L
    var j = 0
    // fAtMax only falls and fAtMin only rises, so the pass stops, 64 values at a time, once they cross
    while (j < n && fAtMin < fAtMax) {
      val end = math.min(n, j + 64)
      while (j < end) {
        // branch-free: deltas at the extremes are as common as any other, in no pattern
        val d = values(from + j) - (acc >> s); val f = acc & mask
        val offMax = d ^ dMax; val offMin = d ^ dMin // 0 at an extreme; (x | -x) >> 63 is -1 elsewhere
        fAtMax = math.min(fAtMax, f | (((offMax | -offMax) >> 63) & Long.MaxValue))
        fAtMin = math.max(fAtMin, f | ((offMin | -offMin) >> 63))
        acc += m
        j += 1
      }
    }
    val step = LecoPartition.phaseStep(s)
    val phi = ((1L << s) - fAtMax + step - 1) & -step // rounded up to the step, a power of two
    if (fAtMin < fAtMax && phi < (1L << s) - fAtMin) {
      if (keepDeltas) {
        val moved = (1L << s) - phi
        acc = 0L
        j = 0
        while (j < n) { deltas(j) += (moved - 1 - (acc & mask)) >> 63; acc += m; j += 1 } // -1 where f(j) >= moved
      }
      phase = phi
      dMax -= 1
    }
  }
}

private[core] object LineFit {
  /** Values per block of the least-squares sums (`b >> 4` is a block's index). */
  val Block = 16
  /** Largest slope magnitude: the slope field of a partition header is 50 bits, signed. */
  val MaxSlope: Long = (1L << 49) - 1
  /** Bound on `|slope|·(len − 1)`, so that `slope·j + phase` never leaves a `Long`. */
  val MaxProduct: Long = 1L << 62

  /** The fixed-point limit of a partition of `n` values: its largest slope.
    * Up to 2^13 + 1 values it is the slope field's.
    */
  def slopeLimit(n: Int): Long = if (n - 1 <= (1 << 13)) MaxSlope else MaxProduct / (n - 1)

  /** Σy and Σi·y of each full [[Block]] of a sample: block `k` covers
    * `values(16k until 16k + 16)`.
    */
  final class BlockSums(val y: Array[Double], val xy: Array[Double])

  def blockSums(values: Array[Long]): BlockSums = {
    val k = values.length / Block
    val sums = new BlockSums(new Array[Double](k), new Array[Double](k))
    val line = new LineFit
    var b = 0
    while (b < k) {
      line.sumBlock(values, b * Block, Block)
      sums.y(b) = line.by; sums.xy(b) = line.bxy
      b += 1
    }
    sums
  }
}
