package repro.core

import repro.core.Loa._

/** Factor-graph compilation (§4.3) and relative-plausibility scoring (§6).
  *
  * A compiled graph is bipartite: variable nodes are observations, factor
  * nodes are feature-distribution instances, and an edge connects a factor to
  * every observation it applies over. The score of any component is
  *
  *   Σ_factors ln(max(ε, AOF(likelihood))) / #factors   (Eq. 2 + §6 normalization)
  *
  * This is the scorer [[Fixy]] runs, one Spark task per scene; a DataFrame
  * formulation of the same feature set is kept in the tests as an independent
  * reference.
  */
object FactorGraph {

  /** Likelihood floor before ln, so hard-zeroed factors yield a large negative
    * but finite score contribution (rank-equivalent to −∞ in a top-k list).
    */
  val Eps: Double = 1e-6

  /** One factor node: the (AOF-transformed) value and the obs it connects to. */
  final case class Factor(name: String, memberObs: Seq[Int], value: Double)

  /** A compiled graph over one track's observations. */
  final case class Compiled(obs: IndexedSeq[Obs], factors: Seq[Factor]) {
    def nFactors: Int = factors.size

    /** Eq. 2 score over the whole compiled component. */
    def score: Double =
      if (factors.isEmpty) math.log(Eps)
      else factors.map(f => math.log(math.max(Eps, f.value))).sum / factors.size
  }

  /** Compile one track against a feature set (§4.3): one factor per
    * (obs feature × obs), (bundle feature × bundle), (transition feature ×
    * adjacent bundle pair), (track feature × track).
    */
  def compileTrack(track: Track, features: Seq[AppliedFeature]): Compiled = {
    // Observations and bundles are indexed by position, so equal observations
    // or bundles in one track stay distinct variables.
    val bundles = track.bundles.toIndexedSeq
    val obs = bundles.flatMap(_.obs)
    val start = bundles.scanLeft(0)(_ + _.obs.size)
    def members(b: Int): Seq[Int] = start(b) until start(b + 1)
    val ordered = bundles.indices.sortBy(bundles(_).frame)
    val factors = Seq.newBuilder[Factor]

    features.foreach {
      case f: ObsFeature =>
        obs.indices.foreach(i => factors += Factor(f.name, Seq(i), f.aof(f.likelihood(obs(i)))))
      case f: BundleFeature =>
        ordered.foreach(b => factors += Factor(f.name, members(b), f.aof(f.likelihood(bundles(b)))))
      case f: TransitionFeature =>
        ordered.sliding(2).foreach {
          case Seq(prev, next) if bundles(next).frame > bundles(prev).frame =>
            factors += Factor(f.name, members(prev) ++ members(next), f.aof(f.likelihood(bundles(prev), bundles(next))))
          case _ => // same-frame pair or singleton track: no transition factor
        }
      case f: TrackFeature =>
        factors += Factor(f.name, obs.indices, f.aof(f.likelihood(track)))
    }
    Compiled(obs, factors.result())
  }

  /** Eq. 2 score of `track.bundles(b)` over its incoming factors in
    * `compiled`, the track's compiled graph: the factors that touch the
    * bundle and no observation of a later frame. These are the bundle's own
    * observation and bundle factors and the transition from its predecessor,
    * but not the transition to its successor (the §8.3 bundle score).
    */
  def scoreBundle(track: Track, compiled: Compiled, b: Int): Double = {
    val start = track.bundles.iterator.take(b).map(_.obs.size).sum
    val own = start until start + track.bundles(b).obs.size
    val frame = track.bundles(b).frame
    Compiled(compiled.obs, compiled.factors.filter { f =>
      f.memberObs.exists(own.contains) && f.memberObs.forall(compiled.obs(_).frame <= frame)
    }).score
  }
}
