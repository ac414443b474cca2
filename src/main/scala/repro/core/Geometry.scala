package repro.core

/** Axis-aligned birds-eye-view (BEV) box centered at (x, y) with footprint
  * l (extent along x) × w (extent along y): what association compares.
  *
  * Substitution note (DESIGN.md): the paper uses oriented 3D boxes; none of
  * its features (volume, velocity, distance) depend on heading, and IOU-based
  * association is only perturbed at second order, so axis-aligned BEV boxes
  * preserve the behaviour Fixy exploits.
  */
final case class Box(x: Double, y: Double, l: Double, w: Double) {
  /** BEV footprint area (m²). */
  def area: Double = l * w
}

/** Pure geometry used by association and by the velocity feature. */
object Geometry {

  /** Low and high end of the interval [c − e/2, c + e/2]. */
  def lo(c: Double, e: Double): Double = c - e / 2
  def hi(c: Double, e: Double): Double = c + e / 2

  /** Length of the 1D overlap of [c1 − e1/2, c1 + e1/2] and [c2 − e2/2, c2 + e2/2]. */
  def overlap1d(c1: Double, e1: Double, c2: Double, e2: Double): Double =
    math.max(0.0, math.min(hi(c1, e1), hi(c2, e2)) - math.max(lo(c1, e1), lo(c2, e2)))

  /** BEV intersection-over-union of two axis-aligned boxes; in [0, 1]. */
  def iou(a: Box, b: Box): Double = {
    val inter = overlap1d(a.x, a.l, b.x, b.l) * overlap1d(a.y, a.w, b.y, b.w)
    if (inter <= 0.0) 0.0
    else {
      val union = a.area + b.area - inter
      if (union <= 0.0) 0.0 else inter / union
    }
  }

  /** Center-to-center BEV distance (m) — the basis of the velocity transition feature. */
  def centerDistance(a: Box, b: Box): Double = math.hypot(a.x - b.x, a.y - b.y)

  /** Centroid (member-box average) box, the representative box of a bundle;
    * each coordinate is summed in the order given.
    */
  def centroid(boxes: Seq[Box]): Box = {
    def mean(f: Box => Double): Double = boxes.map(f).sum / boxes.size
    Box(mean(_.x), mean(_.y), mean(_.l), mean(_.w))
  }
}
