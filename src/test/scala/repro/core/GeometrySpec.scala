package repro.core

import org.scalatest.funsuite.AnyFunSuite

class GeometrySpec extends AnyFunSuite {
  private val rng = new java.util.Random(42)
  private def randBox(): Box =
    Box(rng.nextDouble() * 20 - 10, rng.nextDouble() * 20 - 10,
        0.5 + rng.nextDouble() * 8, 0.5 + rng.nextDouble() * 3)

  test("overlap1d: identical intervals overlap fully") {
    assert(Geometry.overlap1d(0, 4, 0, 4) === 4.0)
  }
  test("overlap1d: disjoint intervals have zero overlap") {
    assert(Geometry.overlap1d(0, 2, 10, 2) === 0.0)
  }
  test("overlap1d: touching intervals have zero overlap") {
    assert(Geometry.overlap1d(0, 2, 2, 2) === 0.0)
  }
  test("overlap1d: partial overlap") {
    assert(math.abs(Geometry.overlap1d(0, 4, 2, 4) - 2.0) < 1e-12)
  }
  test("overlap1d: containment returns the smaller extent") {
    assert(math.abs(Geometry.overlap1d(0, 10, 1, 2) - 2.0) < 1e-12)
  }
  test("overlap1d is symmetric") {
    for (_ <- 1 to 200) {
      val (c1, e1, c2, e2) = (rng.nextDouble() * 10, rng.nextDouble() * 5, rng.nextDouble() * 10, rng.nextDouble() * 5)
      assert(math.abs(Geometry.overlap1d(c1, e1, c2, e2) - Geometry.overlap1d(c2, e2, c1, e1)) < 1e-12)
    }
  }

  test("iou of a box with itself is 1") {
    for (_ <- 1 to 100) {
      val b = randBox()
      assert(math.abs(Geometry.iou(b, b) - 1.0) < 1e-9)
    }
  }
  test("iou of disjoint boxes is 0") {
    assert(Geometry.iou(Box(0, 0, 2, 2), Box(100, 100, 2, 2)) === 0.0)
  }
  test("iou is symmetric") {
    for (_ <- 1 to 200) {
      val (a, b) = (randBox(), randBox())
      assert(math.abs(Geometry.iou(a, b) - Geometry.iou(b, a)) < 1e-12)
    }
  }
  test("iou is bounded in [0, 1]") {
    for (_ <- 1 to 500) {
      val i = Geometry.iou(randBox(), randBox())
      assert(i >= 0.0 && i <= 1.0)
    }
  }
  test("iou of half-offset unit squares is 1/3") {
    // overlap = 0.5, union = 1 + 1 − 0.5 = 1.5
    assert(math.abs(Geometry.iou(Box(0, 0, 1, 1), Box(0.5, 0, 1, 1)) - 1.0 / 3) < 1e-12)
  }
  test("iou of contained box is the area ratio") {
    // inner 1×1 inside outer 2×2: inter 1, union 4
    assert(math.abs(Geometry.iou(Box(0, 0, 2, 2), Box(0, 0, 1, 1)) - 0.25) < 1e-12)
  }
  test("iou decreases monotonically with center offset") {
    val base = Box(0, 0, 4, 2)
    val ious = (0 to 8).map(i => Geometry.iou(base, base.copy(x = i * 0.5)))
    assert(ious.sliding(2).forall { case Seq(a, b) => b <= a + 1e-12 })
  }
  test("iou handles zero-area boxes without NaN") {
    val z = Box(0, 0, 0, 0)
    assert(Geometry.iou(z, z) === 0.0)
    assert(Geometry.iou(z, Box(0, 0, 2, 2)) === 0.0)
  }
  test("iou of same-center different-size boxes matches analytic value") {
    // 4×2 vs 2×1 concentric: inter 2, union 8+2−2 = 8
    assert(math.abs(Geometry.iou(Box(5, 5, 4, 2), Box(5, 5, 2, 1)) - 0.25) < 1e-12)
  }

  test("area is l*w") {
    assert(math.abs(Box(1, 2, 3, 4).area - 12.0) < 1e-12)
  }
  test("centroid averages each coordinate of its boxes") {
    assert(Geometry.centroid(Seq(Box(0, 0, 2, 1), Box(2, 4, 4, 3))) == Box(1, 2, 3, 2))
  }
  test("centerDistance matches euclidean distance") {
    assert(math.abs(Geometry.centerDistance(Box(0, 0, 1, 1), Box(3, 4, 1, 1)) - 5.0) < 1e-12)
  }
  test("centerDistance of identical centers is 0") {
    val b = randBox()
    assert(Geometry.centerDistance(b, b.copy(l = 9)) === 0.0)
  }
  test("translation invariance of iou") {
    for (_ <- 1 to 100) {
      val (a, b) = (randBox(), randBox())
      val (dx, dy) = (rng.nextDouble() * 50, rng.nextDouble() * 50)
      val i1 = Geometry.iou(a, b)
      val i2 = Geometry.iou(a.copy(x = a.x + dx, y = a.y + dy), b.copy(x = b.x + dx, y = b.y + dy))
      assert(math.abs(i1 - i2) < 1e-9)
    }
  }
}
