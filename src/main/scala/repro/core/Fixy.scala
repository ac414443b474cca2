package repro.core

import scala.collection.immutable.ArraySeq

import org.apache.spark.sql.{DataFrame, Dataset, Encoder, SparkSession}
import org.apache.spark.sql.functions.col

/** A class-conditional learned distribution (§5.2): a KDE per class with
  * enough training samples, and the pooled (all-class) KDE that every other
  * class, and a feature without classes, falls back to, so an unseen class
  * never crashes scoring.
  */
final case class ClassKde(byClass: Map[String, Kde], pooled: Kde) {
  def likelihood(cls: Option[String], value: Double): Double =
    cls.flatMap(byClass.get).getOrElse(pooled).likelihood(value)
}

/** The learned feature distributions (§5), by feature name — fitted offline
  * from existing (possibly noisy) human labels and shipped to the per-scene
  * scoring tasks.
  */
final case class LearnedModel(byFeature: Map[String, ClassKde])

/** Pipeline configuration; defaults follow §3/§8. Each field is one the
  * benchmark harness reads as well: it associates with `assoc`, checks the
  * count filter against `minTrackObs`, and times the velocity and per-class
  * KDE layers with `fps` and `minClassSamples`.
  */
final case class FixyConfig(
    assoc: Association.Config = Association.Config(),
    /** Frame rate (Hz) that turns a transition's displacement into a speed. */
    fps: Double = 5.0,
    /** Table 2 "Count": filter tracks with two or fewer observations. */
    minTrackObs: Int = 3,
    /** Minimum per-class sample count before falling back to the pooled KDE. */
    minClassSamples: Int = 10,
)

/** One track ranked by the ranking named `method`: its severity as `score`
  * (Eq. 2 for Fixy), with what the applications filter and report on: the
  * observation counts, the max model confidence (None without model
  * observations) and the smallest member class. `rank` is 1-based within the
  * scene and method.
  */
final case class ScoredTrack(
    method: String,
    scene: Long,
    trackId: Long,
    score: Double,
    nObs: Long,
    nHuman: Long,
    maxConf: Option[Double],
    cls: String,
    rank: Int,
)

/** One §8.3 candidate bundle scored by Eq. 2 over its incoming factors;
  * `rank` is 1-based within the scene.
  */
final case class ScoredBundle(
    scene: Long,
    trackId: Long,
    bundleId: Long,
    frame: Int,
    score: Double,
    nObs: Long,
    cls: String,
    rank: Int,
)

/** Fixy (§3): offline feature-distribution learning over existing labels and
  * online scoring/ranking of potential errors. Scenes are independent, so each
  * phase is one per-scene Spark pass ([[Association.byScene]]: no shuffle when
  * each scene of its input is in one partition, as the generator's and every
  * pass's output are) that runs, scene by scene, the pure-Scala LOA model:
  * [[Association.assignScene]], [[Loa.fromTracked]] and
  * [[FactorGraph.compileTrack]] over [[driverFeatures]]; [[rankTracks]] ranks
  * a scene under every [[Ranking]] (Fixy's and the baselines') at once.
  *
  * All rankers take *already associated* observations ([[TrackedObs]]) so the
  * association pass is shared; `Association.assignTracks` produces them.
  */
object Fixy {

  // --------------------------------------------------------------------------
  // Offline phase: learn feature distributions from existing human labels (§5.2).
  // --------------------------------------------------------------------------

  /** One scene's training values of the learned feature `feature` for class `cls`. */
  private[core] final case class Sample(feature: String, cls: Option[String], values: Array[Double])

  // Table 2's features π, each defined once for learning and scoring. A
  // transition instance advances the frame, so its speed is defined.
  private val volume = Loa.ObsFeature("volume", _.volume)
  private val distance = Loa.ObsFeature("distance", _.distanceToAv)
  /** e-fold scale (m) of the manual distance severity distribution. */
  private[core] val DistanceScale = 60.0
  private def velocity(cfg: FixyConfig) = Loa.TransitionFeature("velocity", Loa.transitionSpeed(_, _, cfg.fps).get)
  private val count = Loa.TrackFeature("count", _.nObs.toDouble)

  /** The features whose distributions [[learn]] fits; distance's is manual. */
  private[core] def learnedFeatures(cfg: FixyConfig): Seq[Loa.Feature] = Seq(volume, velocity(cfg), count)

  /** Fit the learned features' distributions from the human-proposed labels
    * in `obs`. Labels may themselves contain errors — the paper's point is
    * that the aggregate distributions are still informative.
    *
    * One [[Association.byScene]] pass associates each scene's human labels
    * and emits the values of every instance ([[Loa.instances]]) of every
    * learned feature, one array per feature and class. The arrays are
    * collected once, joined per feature and class, and fitted on the driver:
    * a KDE per class with at least `minClassSamples` values, plus the pooled
    * KDE. [[Kde.fit]] sorts its values, so the order they arrive in does not
    * matter.
    */
  def learn(obs: Dataset[Obs], cfg: FixyConfig = FixyConfig())(implicit spark: SparkSession): LearnedModel = {
    import spark.implicits._
    val features = learnedFeatures(cfg)
    val samples = Association.byScene(obs.filter(col("source") === Sources.Human)) { (_, rows) =>
      val tracks = Loa.fromTracked(Association.assignScene(rows.toSeq, cfg.assoc)).flatMap(_.tracks)
      features.flatMap { f =>
        tracks.flatMap(Loa.instances(_, f)).groupMap(_.cls)(_.value).map { case (cls, vs) => Sample(f.name, cls, vs.toArray) }
      }
    }.collect().toSeq.groupBy(_.feature)

    LearnedModel(features.map { f =>
      val byCls = samples.getOrElse(f.name, Seq.empty).groupMap(_.cls)(_.values).map { case (c, vs) => c -> Array.concat(vs: _*) }
      require(byCls.nonEmpty, s"no human labels to learn the ${f.name} distribution from")
      def fit(vs: Array[Double]) = Kde.fit(ArraySeq.unsafeWrapArray(vs))
      val byClass = byCls.collect { case (Some(c), vs) if vs.length >= cfg.minClassSamples => c -> fit(vs) }
      f.name -> ClassKde(byClass, fit(Array.concat(byCls.values.toSeq: _*)))
    }.toMap)
  }

  /** The paper's feature set (Table 2) as LOA feature distributions — the one
    * definition every scorer compiles into factor graphs. The "model only"
    * and "count" features are hard filters applied outside the score (see
    * [[isMissingTrackCandidate]]), so they do not appear here. The toggles
    * mirror the applications of §7/§8: `useDistance` adds the manual distance
    * factor (off for §8.4), `useTrackLength` the learned track-length factor
    * (on for §8.4), and `invert` applies the `1 − x` AOF to every factor.
    */
  def driverFeatures(
      model: LearnedModel,
      cfg: FixyConfig = FixyConfig(),
      useDistance: Boolean = true,
      useTrackLength: Boolean = false,
      invert: Boolean = false,
  ): Seq[Loa.AppliedFeature] = {
    val aof: Aof = if (invert) Aof.Invert else Aof.Identity
    def learned(f: Loa.Feature) = Loa.AppliedFeature(f, aof, model.byFeature(f.name).likelihood)
    // Manual severity distribution over distance-to-AV (Table 2 "Distance").
    val manualDistance = Loa.AppliedFeature(distance, aof, (_, d) => math.exp(-d / DistanceScale))
    Seq(learned(volume)) ++
      (if (useDistance) Seq(manualDistance) else Seq.empty) ++
      Seq(learned(velocity(cfg))) ++
      (if (useTrackLength) Seq(learned(count)) else Seq.empty)
  }

  // --------------------------------------------------------------------------
  // Online phase: one per-scene pass rebuilds each scene's tracks; filters,
  // severities and per-scene ranks are applied inside the pass.
  // --------------------------------------------------------------------------

  /** One [[Association.byScene]] pass: `f` gets the scene id and its tracks in id order. */
  private[repro] def perScene[T: Encoder](tracked: Dataset[TrackedObs])(f: (Long, Seq[Loa.Track]) => Seq[T]): Dataset[T] =
    Association.byScene(tracked)((scene, rows) => f(scene, Loa.fromTracked(rows.toSeq).flatMap(_.tracks)))

  /** The one ranking order: highest `score` first, ties to the smaller `id`;
    * `withRank` sets each row's rank, from 1.
    */
  private def inRankOrder[R](rows: Seq[R])(score: R => Double, id: R => Long)(withRank: (R, Int) => R): Seq[R] =
    rows.sortBy(r => (-score(r), id(r))).zipWithIndex.map { case (r, i) => withRank(r, i + 1) }

  /** A track ranking: the tracks that pass `keep` (the hard filters) by
    * `severity`, Eq. 2 ([[eq2]]) for Fixy and ad-hoc for the baselines.
    */
  final case class Ranking(keep: Loa.Track => Boolean, severity: Loa.Track => Double)

  /** The one track-ranking pass: each scene's tracks are rebuilt once and
    * ranked under each named ranking. A ranking's rows carry its name as
    * `method`, its kept tracks' statistics and `severity` as `score`, and the
    * per-scene rank ([[inRankOrder]]).
    */
  private[repro] def rankTracks(tracked: Dataset[TrackedObs], rankings: (String, Ranking)*)(
      implicit spark: SparkSession): Dataset[ScoredTrack] = {
    import spark.implicits._
    val names = rankings.map(_._1)
    require(names.distinct == names, s"duplicate ranking names: ${names.diff(names.distinct).distinct.mkString(", ")}")
    perScene(tracked) { (scene, tracks) =>
      rankings.flatMap { case (method, Ranking(keep, severity)) =>
        inRankOrder(tracks.filter(keep).map { t =>
          val obs = t.allObs
          ScoredTrack(method, scene, t.trackId, severity(t), nObs = obs.size, nHuman = obs.count(_.source == Sources.Human),
            maxConf = t.modelConf.maxOption, cls = obs.map(_.cls).min, rank = 0)
        })(_.score, _.trackId)((t, rank) => t.copy(rank = rank))
      }
    }
  }

  /** Rank each `method`'s rows as one list across scenes, on the driver (the
    * scored rows are few), in [[inRankOrder]] by `score` and `trackId`.
    */
  private[repro] def rankGlobally(ranked: Dataset[ScoredTrack])(implicit spark: SparkSession): Dataset[ScoredTrack] = {
    import spark.implicits._
    ranked.collect().toSeq.groupBy(_.method).values.toSeq
      .flatMap(inRankOrder(_)(_.score, _.trackId)((t, rank) => t.copy(rank = rank))).toDS()
  }

  /** Eq. 2 over a track's factor graph, as a ranking severity. */
  private[repro] def eq2(features: Seq[Loa.AppliedFeature]): Loa.Track => Double = FactorGraph.compileTrack(_, features).score

  // --------------------------------------------------------------------------
  // Application 1 (§7, §8.2): finding tracks missed entirely by human labels.
  // --------------------------------------------------------------------------

  /** The §8.2 candidates, ranked by Fixy and the consistency assertion alike:
    * the AOF zeroes out tracks with a human proposal ("model only", Table 2)
    * and tracks under `minObs` observations ("count"); both are hard filters,
    * so they are a predicate rather than ε-score factors.
    */
  private[repro] def isMissingTrackCandidate(minObs: Int)(t: Loa.Track): Boolean =
    !t.hasSource(Sources.Human) && t.nObs >= minObs

  /** Fixy's §8.2 ranking: the candidates ([[isMissingTrackCandidate]]), most plausible first. */
  def missingTracks(model: LearnedModel, cfg: FixyConfig): Ranking =
    Ranking(isMissingTrackCandidate(cfg.minTrackObs), eq2(driverFeatures(model, cfg)))

  /** [[missingTracks]] alone. Adds `rank` (1-based, per scene). */
  def rankMissingTracks(
      tracked: Dataset[TrackedObs],
      model: LearnedModel,
      cfg: FixyConfig = FixyConfig(),
  )(implicit spark: SparkSession): DataFrame =
    rankTracks(tracked, "fixy" -> missingTracks(model, cfg)).drop("method")

  // --------------------------------------------------------------------------
  // Application 2 (§7, §8.3): finding missing labels *within* human tracks.
  // --------------------------------------------------------------------------

  /** Rank model-only bundles that belong to tracks containing at least one
    * human proposal — the AOF of §8.3: P(bundle with human) := 0,
    * P(track without human) := 0. We additionally zero bundles at frames
    * where the same track already has a human observation (the label exists
    * at that frame; it merely failed same-frame bundling), which is the
    * track-level reading of "bundle contains a human proposal". A bundle's
    * score is Eq. 2 over its incoming factors ([[FactorGraph.scoreBundle]]):
    * its observations' factors and the transition from its predecessor.
    * Higher score = more likely a real missing label. Adds `rank` (1-based,
    * per scene).
    */
  def rankMissingObservations(
      tracked: Dataset[TrackedObs],
      model: LearnedModel,
      cfg: FixyConfig = FixyConfig(),
  )(implicit spark: SparkSession): DataFrame = {
    import spark.implicits._
    val features = driverFeatures(model, cfg)
    perScene(tracked) { (scene, tracks) =>
      val candidates = tracks.filter(_.hasSource(Sources.Human)).flatMap { t =>
        val humanFrames = t.allObs.filter(_.source == Sources.Human).map(_.frame).toSet
        lazy val compiled = FactorGraph.compileTrack(t, features)
        t.bundles.zipWithIndex.collect {
          case (b, k) if !b.hasSource(Sources.Human) && !humanFrames(b.frame) =>
            ScoredBundle(scene, t.trackId, b.id, b.frame, FactorGraph.scoreBundle(t, compiled, k), b.obs.size, b.cls, 0)
        }
      }
      inRankOrder(candidates)(_.score, _.bundleId)((b, rank) => b.copy(rank = rank))
    }.toDF()
  }

  /** [[rankMissingObservations]]'s candidates as one list across scenes, on
    * the driver, in [[inRankOrder]] by `score` and `bundleId`: the §8.3
    * experiment's rank over all scenes and distractors.
    */
  private[repro] def rankMissingObservationsGlobally(tracked: Dataset[TrackedObs], model: LearnedModel, cfg: FixyConfig)(
      implicit spark: SparkSession): DataFrame = {
    import spark.implicits._
    val candidates = rankMissingObservations(tracked, model, cfg).as[ScoredBundle].collect().toSeq
    inRankOrder(candidates)(_.score, _.bundleId)((b, rank) => b.copy(rank = rank)).toDF()
  }

  // --------------------------------------------------------------------------
  // Application 3 (§7, §8.4): finding erroneous ML model predictions.
  // --------------------------------------------------------------------------

  /** Fixy's §8.4 ranking: model tracks by *implausibility* (the `1 − x`
    * AOF), except those `excluded` (the errors the ad-hoc MAs already found,
    * per §8.4). Its input should be model observations only: it does not look
    * at sources.
    */
  def modelErrors(model: LearnedModel, cfg: FixyConfig, excluded: Loa.Track => Boolean): Ranking =
    Ranking(t => t.nObs >= cfg.minTrackObs && !excluded(t),
      eq2(driverFeatures(model, cfg, useDistance = false, useTrackLength = true, invert = true)))

  /** [[modelErrors]] alone, excluding `excludedTrackIds`. Adds `rank`
    * (1-based, global — the paper reports a single top-10 over 5 scenes).
    */
  def rankModelErrors(
      tracked: Dataset[TrackedObs],
      model: LearnedModel,
      cfg: FixyConfig = FixyConfig(),
      excludedTrackIds: Seq[Long] = Seq.empty,
  )(implicit spark: SparkSession): DataFrame = {
    val excluded = excludedTrackIds.toSet
    rankGlobally(rankTracks(tracked, "fixy" -> modelErrors(model, cfg, t => excluded(t.trackId)))).drop("method")
  }
}
