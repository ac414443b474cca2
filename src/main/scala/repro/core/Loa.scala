package repro.core

/** The LOA DSL (§4): scenes, tracks, observation bundles, observations (OBTs),
  * features over each level, feature distributions, and the applied-feature
  * form that [[FactorGraph]] compiles to factors.
  *
  * This object model is the semantics of LOA that [[Fixy]] runs: its Spark
  * jobs rebuild each scene with [[fromTracked]] and score it through
  * [[FactorGraph]], one task per scene.
  */
object Loa {

  /** Observation bundle β: same-frame observations associated by IOU. `id`
    * is the association's bundle id.
    */
  final case class Bundle(id: Long, frame: Int, obs: Seq[Obs]) {
    /** Representative (centroid) box used for transitions and tracking;
      * computed once per bundle, as both of a bundle's transitions read it.
      */
    lazy val representative: Box = Geometry.centroid(obs.map(_.box))
    def hasSource(s: String): Boolean = obs.exists(_.source == s)
    /** Class representative: the smallest member class, so a bundle whose
      * sources disagree on the class still gets one deterministic class.
      */
    def cls: String = obs.map(_.cls).min
  }

  /** Track τ: bundles ordered by frame. */
  final case class Track(trackId: Long, bundles: Seq[Bundle]) {
    def allObs: Seq[Obs] = bundles.flatMap(_.obs)
    def nObs: Int = allObs.size
    def hasSource(s: String): Boolean = allObs.exists(_.source == s)
    /** The model observations' confidences, and their mean (None without any). */
    def modelConf: Seq[Double] = allObs.filter(_.source == Sources.Model).map(_.conf)
    def meanConf: Option[Double] = Option(modelConf).filter(_.nonEmpty).map(c => c.sum / c.size)
  }

  /** Scene s: a set of tracks. */
  final case class Scene(scene: Long, tracks: Seq[Track])

  /** Rebuild the LOA object model from association output: scenes and tracks
    * in id order, each track's bundles in (frame, bundle id) order.
    */
  def fromTracked(rows: Seq[TrackedObs]): Seq[Scene] =
    rows.groupBy(_.scene).toSeq.sortBy(_._1).map { case (sceneId, sceneRows) =>
      val tracks = sceneRows.groupBy(_.trackId).toSeq.sortBy(_._1).map { case (tid, trackRows) =>
        val bundles = trackRows.groupBy(_.bundleId).toSeq.sortBy { case (bid, rs) => (rs.head.frame, bid) }
          .map { case (bid, rs) => Bundle(bid, rs.head.frame, rs.sortBy(o => (o.source, o.trueId, o.x)).map(_.toObs)) }
        Track(tid, bundles)
      }
      Scene(sceneId, tracks)
    }

  // --------------------------------------------------------------------------
  // Feature distributions (§5): a feature (π) composed with a learned or
  // manual distribution, plus an AOF (§5.3). `likelihood` returns the
  // distribution's (max-normalized) probability of the feature value.
  // --------------------------------------------------------------------------

  sealed trait AppliedFeature extends Serializable {
    def name: String
    def aof: Aof
  }

  /** Feature over a single observation, e.g. class-conditional box volume. */
  final case class ObsFeature(name: String, aof: Aof, likelihood: Obs => Double) extends AppliedFeature

  /** Feature over an observation bundle, e.g. "model predictions only". */
  final case class BundleFeature(name: String, aof: Aof, likelihood: Bundle => Double) extends AppliedFeature

  /** Feature over adjacent bundles in a track, e.g. instantaneous velocity. */
  final case class TransitionFeature(name: String, aof: Aof, likelihood: (Bundle, Bundle) => Double)
      extends AppliedFeature

  /** Feature over an entire track, e.g. observation count. */
  final case class TrackFeature(name: String, aof: Aof, likelihood: Track => Double) extends AppliedFeature

  /** Instantaneous speed (m/s) between bundle representatives — the paper's
    * canonical transition feature. Returns None for same-frame bundle pairs
    * (no time elapsed, no factor emitted).
    */
  def transitionSpeed(prev: Bundle, next: Bundle, fps: Double): Option[Double] = {
    val df = next.frame - prev.frame
    if (df <= 0) None
    else Some(Geometry.centerDistance(prev.representative, next.representative) * fps / df)
  }
}
