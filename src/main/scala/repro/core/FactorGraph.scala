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
  * This is the scorer [[Fixy]] runs, one scene at a time; a DataFrame
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
    * instance of each feature ([[Loa.instances]]), valued `aof(likelihood)`.
    */
  def compileTrack(track: Track, features: Seq[AppliedFeature]): Compiled =
    Compiled(track.allObs, features.flatMap { f =>
      Loa.instances(track, f.feature).map(i => Factor(f.feature.name, i.members, f.aof(f.likelihood(i.cls, i.value))))
    })

  /** Eq. 2 score of `track.bundles(b)` over its incoming factors in
    * `compiled`, the track's compiled graph: the factors that touch the
    * bundle and no observation of a later frame. These are the bundle's own
    * observation and bundle factors and the transition from its predecessor,
    * but not the transition to its successor (the §8.3 bundle score).
    */
  def scoreBundle(track: Track, compiled: Compiled, b: Int): Double = {
    val own = track.members(b)
    val frame = track.bundles(b).frame
    Compiled(compiled.obs, compiled.factors.filter { f =>
      f.memberObs.exists(own.contains) && f.memberObs.forall(compiled.obs(_).frame <= frame)
    }).score
  }
}
