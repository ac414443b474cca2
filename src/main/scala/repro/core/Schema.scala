package repro.core

/** A row that belongs to one scene: what [[Association.byScene]] groups on. */
trait SceneRow { def scene: Long }

/** Row-level schema shared by the generator, the association substrate and the
  * scorer. One row = one *observation* (§4.2 ω): a 3D box proposed by some
  * observation source at one frame of one scene.
  *
  * `trueId` is generator ground truth (positive = real object id, negative =
  * ghost/novel-error id). Only the evaluation code (`repro.eval.Metrics`), the
  * paper's human auditor, judges by it; association and `Loa.fromTracked` use
  * it only as a sort key that fixes the order of ids.
  */
final case class Obs(
    scene: Long,
    frame: Int,
    source: String, // Sources.Human or Sources.Model
    trueId: Long,
    cls: String,    // Classes.*
    x: Double,
    y: Double,
    z: Double,
    l: Double,
    w: Double,
    h: Double,
    conf: Double,   // model confidence; 1.0 for human proposals
) extends SceneRow {
  def box: Box = Box(x, y, l, w)
  def volume: Double = l * w * h
  def distanceToAv: Double = math.hypot(x, y)
}

/** An observation with its bundle (§4.2 β, same-frame association) and track
  * (§4.2 τ, cross-frame association) assignments. Bundle and track ids are
  * globally unique (scene-prefixed).
  */
final case class TrackedObs(
    scene: Long,
    frame: Int,
    source: String,
    trueId: Long,
    cls: String,
    x: Double,
    y: Double,
    z: Double,
    l: Double,
    w: Double,
    h: Double,
    conf: Double,
    bundleId: Long,
    trackId: Long,
) extends SceneRow {
  def toObs: Obs = Obs(scene, frame, source, trueId, cls, x, y, z, l, w, h, conf)
}

/** Observation source names ("observation bundles" aggregate across these). */
object Sources {
  val Human = "human"
  val Model = "model"
}

/** The four common classes the paper evaluates on (§8.1). */
object Classes {
  val Car        = "car"
  val Truck      = "truck"
  val Pedestrian = "pedestrian"
  val Motorcycle = "motorcycle"
  val All: Seq[String] = Seq(Car, Truck, Pedestrian, Motorcycle)
}
