package repro.core

/** Gaussian kernel density estimator — the learned "feature distribution" of §5.
  *
  * Fit with Silverman's rule-of-thumb bandwidth over the (possibly subsampled)
  * training values, then evaluated on a fixed grid so that scoring is O(1) per
  * lookup; an instance is its bandwidth and grid (the exact sum-of-kernels
  * density, [[Kde.pdfExact]], is the tests' reference).
  *
  * [[likelihood]] is the density normalized by the maximum density over the
  * grid, giving a *relative* likelihood in (0, 1]. This matches the paper's §6
  * worked example, where feature "scores" are probabilities like 0.37, and
  * makes the `1 − x` application objective function (§5.3) well defined.
  *
  * Degenerate training data degrades to a spike: constant values (one box
  * size, one speed, one track length) fit the bandwidth floor, 1e-3, so the
  * value itself has likelihood ~1 and a value a few multiples of the floor
  * away has likelihood ~0, which Eq. 2 floors at [[FactorGraph.Eps]]: scores
  * stay finite.
  *
  * Instances are immutable and serializable, so a map of fitted KDEs can be
  * shipped to the Spark tasks that score scenes.
  */
final case class Kde(
    bandwidth: Double,
    gridLo: Double,
    gridStep: Double,
    gridDensity: Array[Double],
    maxDensity: Double,
) extends Serializable {

  /** Grid-interpolated density at x; 0 outside the (±4 bandwidth padded) grid. */
  def pdf(x: Double): Double = {
    val pos = (x - gridLo) / gridStep
    if (pos < 0.0 || pos > gridDensity.length - 1) 0.0
    else {
      val i = math.min(gridDensity.length - 2, pos.toInt)
      val frac = pos - i
      gridDensity(i) * (1.0 - frac) + gridDensity(i + 1) * frac
    }
  }

  /** Max-normalized relative likelihood in [0, 1]. */
  def likelihood(x: Double): Double = math.min(1.0, pdf(x) / maxDensity)
}

object Kde {
  /** The most values a fit keeps ([[subsample]]). */
  val MaxSamples = 2000
  /** The number of points of a fit's density grid. */
  val GridSize = 512

  /** Robust Silverman rule-of-thumb bandwidth: 1.06 · min(σ, IQR/1.34) ·
    * n^(−1/5), floored at an absolute 1e-3 so constant data stays usable. The
    * IQR term keeps the bandwidth sane when the training labels contain
    * outliers (e.g. centroid jumps from occasionally merged tracks) — which is
    * exactly the "noisy existing labels" regime the paper learns from. The
    * floor does not depend on where the values lie, so the fit commutes with
    * translation.
    */
  def silvermanBandwidth(values: Seq[Double]): Double = {
    val n = values.length
    require(n > 0, "cannot compute a bandwidth over no values")
    val mean = values.sum / n
    val variance = values.map(v => (v - mean) * (v - mean)).sum / n
    val sigma = math.sqrt(variance)
    val sorted = values.sorted
    val iqr = sorted((0.75 * (n - 1)).toInt) - sorted((0.25 * (n - 1)).toInt)
    val spread = if (iqr > 0) math.min(sigma, iqr / 1.34) else sigma
    math.max(1.06 * spread * math.pow(n.toDouble, -0.2), 1e-3)
  }

  /** Exact sum-of-Gaussians density at x of `samples` with bandwidth `h`. */
  def pdfExact(samples: Array[Double], h: Double)(x: Double): Double = {
    var s = 0.0
    var i = 0
    while (i < samples.length) {
      val z = (x - samples(i)) / h
      s += math.exp(-0.5 * z * z)
      i += 1
    }
    s / (samples.length * h * math.sqrt(2.0 * math.Pi))
  }

  /** The sorted values, or a stride subsample of `maxSamples` of them: it keeps
    * the distribution's shape without an RNG, so fits are reproducible.
    */
  def subsample(values: Seq[Double], maxSamples: Int): Array[Double] = {
    val sorted = values.toArray
    java.util.Arrays.sort(sorted) // the total order of java.lang.Double.compare, as `Seq.sorted`'s
    if (sorted.length <= maxSamples) sorted
    else {
      val stride = sorted.length.toDouble / maxSamples
      Array.tabulate(maxSamples)(i => sorted(math.min(sorted.length - 1, (i * stride).toInt)))
    }
  }

  /** Fit a KDE over `values`, subsampled ([[subsample]]) above [[MaxSamples]]. */
  def fit(values: Seq[Double]): Kde = {
    require(values.nonEmpty, "cannot fit a KDE over no values")
    val kept = subsample(values, MaxSamples)
    val h = silvermanBandwidth(kept.toIndexedSeq)
    val lo = kept.head - 4.0 * h
    val hi = kept.last + 4.0 * h
    val step = (hi - lo) / (GridSize - 1)
    val grid = Array.tabulate(GridSize)(i => pdfExact(kept, h)(lo + i * step))
    val maxD = grid.max
    Kde(h, lo, step, grid, if (maxD > 0) maxD else 1.0)
  }
}
