package repro.core

import org.scalatest.funsuite.AnyFunSuite

class KdeSpec extends AnyFunSuite {
  private val rng = new java.util.Random(11)
  private def gaussianSample(n: Int, mean: Double, sd: Double): Seq[Double] =
    Seq.fill(n)(mean + rng.nextGaussian() * sd)

  test("fit rejects empty input") {
    assertThrows[IllegalArgumentException](Kde.fit(Seq.empty))
  }
  test("bandwidth is positive for constant data") {
    assert(Kde.silvermanBandwidth(Seq(5.0, 5.0, 5.0)) > 0)
  }
  test("bandwidth is positive for a single value") {
    assert(Kde.silvermanBandwidth(Seq(3.0)) > 0)
  }
  test("bandwidth scales with spread") {
    val narrow = Kde.silvermanBandwidth(gaussianSample(500, 0, 1))
    val wide = Kde.silvermanBandwidth(gaussianSample(500, 0, 10))
    assert(wide > narrow * 3)
  }
  test("silverman formula matches hand computation") {
    val vs = Seq(1.0, 2.0, 3.0, 4.0, 5.0)
    val mean = 3.0
    val sigma = math.sqrt(vs.map(v => (v - mean) * (v - mean)).sum / 5)
    val expected = 1.06 * sigma * math.pow(5, -0.2)
    assert(math.abs(Kde.silvermanBandwidth(vs) - expected) < 1e-12)
  }

  test("pdfExact integrates to ~1 over a wide range") {
    val vs = gaussianSample(300, 0, 1)
    val exact: Double => Double = Kde.pdfExact(Kde.subsample(vs, Kde.MaxSamples), Kde.fit(vs).bandwidth)
    val (lo, hi, n) = (-8.0, 8.0, 4000)
    val step = (hi - lo) / n
    val integral = (0 until n).map(i => exact(lo + (i + 0.5) * step) * step).sum
    assert(math.abs(integral - 1.0) < 0.02, s"integral=$integral")
  }
  test("grid pdf closely matches exact pdf inside the grid") {
    val vs = gaussianSample(400, 5, 2)
    val kde = Kde.fit(vs)
    for (x <- Seq(0.0, 2.5, 5.0, 7.5, 10.0)) {
      val (g, e) = (kde.pdf(x), Kde.pdfExact(Kde.subsample(vs, Kde.MaxSamples), kde.bandwidth)(x))
      assert(math.abs(g - e) <= 0.02 * math.max(1e-6, e) + 1e-4, s"x=$x grid=$g exact=$e")
    }
  }
  test("pdf is zero far outside the data range") {
    val kde = Kde.fit(gaussianSample(200, 0, 1))
    assert(kde.pdf(1e6) === 0.0)
    assert(kde.pdf(-1e6) === 0.0)
  }
  test("pdf peaks near the mode of unimodal data") {
    val kde = Kde.fit(gaussianSample(2000, 10, 1))
    assert(kde.pdf(10) > kde.pdf(7))
    assert(kde.pdf(10) > kde.pdf(13))
  }
  test("likelihood is in [0, 1]") {
    val kde = Kde.fit(gaussianSample(500, 3, 2))
    for (x <- BigDecimal(-10.0) to BigDecimal(16.0) by BigDecimal(0.5); xd = x.toDouble) {
      val l = kde.likelihood(xd)
      assert(l >= 0.0 && l <= 1.0, s"x=$xd l=$l")
    }
  }
  test("likelihood at the mode is ~1") {
    val kde = Kde.fit(gaussianSample(2000, 0, 1))
    assert(kde.likelihood(0) > 0.9)
  }
  test("likelihood of implausible value is ~0") {
    val kde = Kde.fit(gaussianSample(500, 1.1, 0.2)) // pedestrian-ish volumes
    assert(kde.likelihood(15.0) < 1e-3) // car-sized volume under pedestrian KDE
  }
  test("bimodal data gives high likelihood at both modes, low between") {
    val vs = gaussianSample(500, 0, 0.5) ++ gaussianSample(500, 10, 0.5)
    val kde = Kde.fit(vs)
    assert(kde.likelihood(0) > 0.5)
    assert(kde.likelihood(10) > 0.5)
    assert(kde.likelihood(5) < 0.2)
  }

  test("the bandwidth floor does not move under translation") {
    // A floor proportional to |mean| binds on these two close values, and a
    // shift of 1.76e-4 moved the likelihood by 1.7e-6 (KdeProps' counterexample).
    val vs = List(22.69110860162779, 22.65096011845249)
    val t = 1.76e-4
    val (a, b) = (Kde.fit(vs), Kde.fit(vs.map(_ + t)))
    assert(math.abs(a.bandwidth - b.bandwidth) < 1e-9 * a.bandwidth)
    assert(math.abs(a.likelihood(vs.head) - b.likelihood(vs.head + t)) < 1e-6)
  }

  test("fit is deterministic") {
    val vs = gaussianSample(300, 2, 1)
    val (a, b) = (Kde.fit(vs), Kde.fit(vs))
    assert(a.bandwidth == b.bandwidth)
    assert(a.gridDensity.sameElements(b.gridDensity))
  }
  test("subsampling keeps the distribution shape") {
    // The fit keeps MaxSamples of the 20,000 values; the reference is the
    // exact density of all of them at the fit's bandwidth, max-normalised over
    // the fit's grid as `likelihood` is.
    val vs = gaussianSample(20000, 4, 1.5)
    val sub = Kde.fit(vs)
    val full = Kde.pdfExact(vs.toArray, sub.bandwidth) _
    val fullMax = sub.gridDensity.indices.map(i => full(sub.gridLo + i * sub.gridStep)).max
    for (x <- Seq(1.0, 2.5, 4.0, 5.5, 7.0))
      assert(math.abs(full(x) / fullMax - sub.likelihood(x)) < 0.12, s"x=$x")
  }
  test("subsampling caps the sample array") {
    val vs = gaussianSample(10000, 0, 1)
    assert(Kde.subsample(vs, maxSamples = 500).length == 500)
    assert(Kde.subsample(vs.take(300), maxSamples = 500).toSeq == vs.take(300).sorted)
  }
  test("subsampling sorts in Seq.sorted's total order, bit for bit") {
    val special = Seq(0.0, -0.0, Double.NegativeInfinity, Double.PositiveInfinity, Double.NaN, -1.5, 1.5, 0.0, -0.0)
    val vs = scala.util.Random.shuffle(special ++ gaussianSample(500, 0, 1))
    val bits = (ds: Seq[Double]) => ds.map(java.lang.Double.doubleToRawLongBits)
    assert(bits(Kde.subsample(vs, maxSamples = 1000).toSeq) == bits(vs.sorted))
    val kept = Kde.subsample(vs, maxSamples = 100).toSeq
    val stride = vs.length.toDouble / 100
    assert(bits(kept) == bits((0 until 100).map(i => vs.sorted.apply(math.min(vs.length - 1, (i * stride).toInt)))))
  }
  test("a fit does not depend on the order of its values") {
    val vs = gaussianSample(3000, 2, 1)
    val (a, b) = (Kde.fit(vs), Kde.fit(scala.util.Random.shuffle(vs)))
    assert(a.bandwidth == b.bandwidth && a.gridLo == b.gridLo && a.gridStep == b.gridStep)
    assert(a.gridDensity.sameElements(b.gridDensity))
  }
  test("single-value fit yields a usable spike distribution") {
    val kde = Kde.fit(Seq(7.0))
    assert(kde.likelihood(7.0) > 0.99)
    assert(kde.likelihood(100.0) < 1e-6)
  }
  test("constant-values fit yields a usable spike distribution") {
    val kde = Kde.fit(Seq.fill(50)(2.5))
    assert(kde.likelihood(2.5) > 0.99)
    assert(kde.likelihood(10.0) < 1e-6)
  }
  test("kde is serializable (broadcast requirement)") {
    val kde = Kde.fit(gaussianSample(100, 0, 1))
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(kde)
    val back = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
      .readObject().asInstanceOf[Kde]
    assert(back.likelihood(0.5) === kde.likelihood(0.5))
  }
  test("maxDensity equals the grid maximum") {
    val kde = Kde.fit(gaussianSample(500, 0, 1))
    assert(kde.maxDensity === kde.gridDensity.max)
  }
  test("likelihood is monotone away from the mode for gaussian data") {
    val kde = Kde.fit(gaussianSample(5000, 0, 1))
    val ls = Seq(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0).map(kde.likelihood)
    assert(ls.sliding(2).forall { case Seq(a, b) => b <= a + 0.05 })
  }
  test("negative values are handled (speeds can be near zero)") {
    val kde = Kde.fit(Seq.fill(200)(math.abs(rng.nextGaussian())))
    assert(kde.likelihood(0.5) > 0.0)
    assert(kde.likelihood(-50.0) === 0.0)
  }
}
