package fixybench

/** Summary statistics for timing samples. A timing is reported as its median
  * plus the highest percentile of [[Ladder]] that still has at least
  * [[MinBeyond]] samples beyond it, together with the sample count.
  */
object Stats {
  val Ladder: Seq[Double] = Seq(50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
  val MinBeyond = 10

  final case class Summary(median: Double, tail: Double, tailPct: Double, n: Int)

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank position (1-based) of percentile `p` among `n` samples. */
  private def rank(n: Int, p: Double): Int = math.max(1, math.ceil(p / 100.0 * n - 1e-9).toInt)

  /** Number of samples ranked above the nearest-rank `p`-th percentile. */
  def beyond(n: Int, p: Double): Int = n - rank(n, p)

  /** The highest ladder percentile with at least [[MinBeyond]] samples beyond it. */
  def tailPercentile(n: Int): Option[Double] = Ladder.filter(beyond(n, _) >= MinBeyond).lastOption

  def summarize(xs: Seq[Double]): Summary = {
    val n = xs.length
    val p = tailPercentile(n).getOrElse(
      throw new IllegalArgumentException(s"$n samples: no percentile has $MinBeyond samples beyond it"))
    Summary(median(xs), xs.sorted.apply(rank(n, p) - 1), p, n)
  }
}
