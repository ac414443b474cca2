package repro.core

import scala.collection.immutable.ArraySeq

/** The LOA DSL (§4): scenes, tracks, observation bundles, observations (OBTs),
  * features over each level and their instances in a track, and the feature
  * distributions that [[FactorGraph]] compiles to factors.
  *
  * This object model is the semantics of LOA that [[Fixy]] runs: its Spark
  * jobs rebuild each scene with [[fromTracked]] and score it through
  * [[FactorGraph]], one scene at a time.
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

  /** Track τ: bundles ordered by frame. Its observations and bundles are
    * indexed by position, so equal ones stay distinct factor-graph variables;
    * the index is built once per track.
    */
  final case class Track(trackId: Long, bundles: IndexedSeq[Bundle]) {
    lazy val allObs: IndexedSeq[Obs] = bundles.flatMap(_.obs)
    def nObs: Int = allObs.size
    def hasSource(s: String): Boolean = allObs.exists(_.source == s)
    /** The model observations' confidences, and their mean (None without any). */
    def modelConf: Seq[Double] = allObs.filter(_.source == Sources.Model).map(_.conf)
    def meanConf: Option[Double] = Option(modelConf).filter(_.nonEmpty).map(c => c.sum / c.size)
    private lazy val start = bundles.scanLeft(0)(_ + _.obs.size)
    /** The positions in `allObs` of bundle `b`'s observations. */
    def members(b: Int): Seq[Int] = start(b) until start(b + 1)
    /** Bundle positions in frame order. */
    lazy val frameOrder: IndexedSeq[Int] = bundles.indices.sortBy(bundles(_).frame)
  }

  /** Scene s: a set of tracks. */
  final case class Scene(scene: Long, tracks: Seq[Track])

  /** The order [[fromTracked]] lists rows in: (scene, trackId, frame,
    * bundleId, source, trueId, x).
    */
  private val rebuildOrder: java.util.Comparator[TrackedObs] = { (a, b) =>
    var c = java.lang.Long.compare(a.scene, b.scene)
    if (c == 0) c = java.lang.Long.compare(a.trackId, b.trackId)
    if (c == 0) c = Integer.compare(a.frame, b.frame)
    if (c == 0) c = java.lang.Long.compare(a.bundleId, b.bundleId)
    if (c == 0) c = a.source.compareTo(b.source)
    if (c == 0) c = java.lang.Long.compare(a.trueId, b.trueId)
    if (c == 0) c = java.lang.Double.compare(a.x, b.x)
    c
  }

  /** Rebuild the LOA object model from association output: scenes and tracks
    * in id order, each track's bundles in (frame, bundle id) order, each
    * bundle's observations in (source, trueId, x) order, ties in input order.
    * A bundle id names one frame, as association's output does.
    *
    * One stable sort of the rows, which then split into runs of one scene,
    * one track and one bundle.
    */
  def fromTracked(rows: Seq[TrackedObs]): Seq[Scene] = {
    val sorted = rows.toArray
    java.util.Arrays.sort(sorted, rebuildOrder) // stable
    val n = sorted.length
    // The end of the run in [from, until) whose rows keep `same` with its first.
    def runEnd(from: Int, until: Int, same: (TrackedObs, TrackedObs) => Boolean): Int = {
      var i = from + 1
      while (i < until && same(sorted(from), sorted(i))) i += 1
      i
    }
    val scenes = Vector.newBuilder[Scene]
    var s = 0
    while (s < n) {
      val sEnd = runEnd(s, n, _.scene == _.scene)
      val tracks = Vector.newBuilder[Track]
      var t = s
      while (t < sEnd) {
        val tEnd = runEnd(t, sEnd, _.trackId == _.trackId)
        val bundles = Vector.newBuilder[Bundle]
        var b = t
        while (b < tEnd) {
          val bEnd = runEnd(b, tEnd, (x, y) => x.frame == y.frame && x.bundleId == y.bundleId)
          bundles += Bundle(sorted(b).bundleId, sorted(b).frame, ArraySeq.tabulate(bEnd - b)(i => sorted(b + i).toObs))
          b = bEnd
        }
        tracks += Track(sorted(t).trackId, bundles.result())
        t = tEnd
      }
      scenes += Scene(sorted(s).scene, tracks.result())
      s = sEnd
    }
    scenes.result()
  }

  // --------------------------------------------------------------------------
  // Features and feature distributions (§5): a feature π maps an observation,
  // bundle, adjacent bundle pair or track to a value; a feature distribution
  // is π composed with a learned or manual distribution, plus an AOF (§5.3).
  // --------------------------------------------------------------------------

  /** A feature π over one level of the LOA hierarchy. */
  sealed trait Feature extends Serializable {
    def name: String
  }

  /** Feature over a single observation, e.g. box volume. */
  final case class ObsFeature(name: String, value: Obs => Double) extends Feature

  /** Feature over an observation bundle, e.g. "model predictions only". */
  final case class BundleFeature(name: String, value: Bundle => Double) extends Feature

  /** Feature over adjacent bundles in a track, e.g. instantaneous velocity. */
  final case class TransitionFeature(name: String, value: (Bundle, Bundle) => Double) extends Feature

  /** Feature over an entire track, e.g. observation count. */
  final case class TrackFeature(name: String, value: Track => Double) extends Feature

  /** One instance of a feature in a track: the positions of its member
    * observations in the track's bundle-ordered observations, π's value, and
    * the class its distribution is conditioned on. That class is the
    * observation's, the bundle's, or the later bundle's for a transition; a
    * track instance has none.
    */
  final case class Instance(members: Seq[Int], value: Double, cls: Option[String])

  /** A feature's instances in `track` (§4.3): one per observation, one per
    * bundle and one per frame-advancing adjacent bundle pair, in frame order,
    * or one for the whole track. A same-frame pair has no transition instance.
    */
  def instances(track: Track, feature: Feature): Seq[Instance] = {
    import track.{allObs => obs, bundles, frameOrder, members}
    feature match {
      case f: ObsFeature    => obs.indices.map(i => Instance(Seq(i), f.value(obs(i)), Some(obs(i).cls)))
      case f: BundleFeature => frameOrder.map(b => Instance(members(b), f.value(bundles(b)), Some(bundles(b).cls)))
      case f: TransitionFeature =>
        frameOrder.sliding(2).collect {
          case Seq(p, n) if bundles(n).frame > bundles(p).frame =>
            Instance(members(p) ++ members(n), f.value(bundles(p), bundles(n)), Some(bundles(n).cls))
        }.toSeq
      case f: TrackFeature => Seq(Instance(obs.indices, f.value(track), None))
    }
  }

  /** A feature distribution with its AOF: `likelihood(cls, value)` is the
    * distribution's (max-normalized) probability of an instance's value.
    */
  final case class AppliedFeature(feature: Feature, aof: Aof, likelihood: (Option[String], Double) => Double)

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
