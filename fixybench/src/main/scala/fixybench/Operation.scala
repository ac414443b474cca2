package fixybench

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.baselines.{ModelAssertions, Uncertainty}
import repro.core.{Association, Fixy, FixyConfig, LearnedModel, TrackedObs}
import repro.eval.Metrics

/** What one application run produced: its top-k lists, its quality figures,
  * and the checks and clean-up to run once the operation's clock has stopped.
  */
final case class AppRun(
    top: Map[String, Vector[Proposal]],
    quality: Map[String, Double],
    verify: () => Seq[String],
    sizes: () => Sizes,
    cleanup: () => Unit,
)

/** Tracks an application scored and the candidates its Fixy ranking kept. */
final case class Sizes(tracks: Long, candidates: Long) {
  def +(o: Sizes): Sizes = Sizes(tracks + o.tracks, candidates + o.candidates)
}

/** The outcome of one operation. Times are absent when the operation threw. */
final case class OpResult(
    wallS: Option[Double],
    learnS: Double,
    rankS: Double,
    cpuS: Double,
    learnCpuS: Double,
    rankCpuS: Double,
    top: Map[String, Vector[Proposal]],
    quality: Map[String, Double],
    failures: Seq[String],
    learned: Option[LearnedModel],
    sizes: Sizes,
) {
  def failed: Boolean = failures.nonEmpty
}

/** One operation: one full application run — learn on the training split, then
  * for each application associate, rank, collect the top-k lists, label them
  * and compute quality.
  *
  * `topK` collects a ranking's top-k list; tests substitute one that corrupts
  * the list to show the checks fail the operation.
  */
final class Operation(
    w: Workload,
    in: Inputs,
    topK: (DataFrame, String, String, Boolean) => Vector[Proposal] = Checks.topK,
)(implicit spark: SparkSession) {
  private val cfg = FixyConfig()

  /** Span names whose time is the online phase (`rank_s`). */
  private val OnlineSpans: Seq[String] =
    Seq("association", "score.missing_tracks", "score.missing_obs", "score.model_errors", "baselines.flagged")

  def run(t: Tracer, first: Option[OpResult]): OpResult = {
    val op = t.op
    var apps = Seq.empty[AppRun]
    try {
      val t0 = System.nanoTime()
      val c0 = Tracer.processCpuNs
      val learned = t.span("learn")(Fixy.learn(in.train, cfg))
      apps = w.apps.map {
        case a: MissingTracks => missingTracks(a, learned, t)
        case a: MissingObs    => missingObs(a, learned, t)
        case a: ModelErrors   => modelErrors(a, learned, t)
      }
      val wall = (System.nanoTime() - t0) / 1e9
      val cpu = (Tracer.processCpuNs - c0) / 1e9
      val top = apps.flatMap(_.top).toMap
      // The benchmark's own checks, after the clock has stopped.
      val (failures, sizes) = t.span("checks") {
        (apps.flatMap(_.verify()) ++ first.toSeq.flatMap(f => Checks.sameAsFirst(f.top, top)),
          if (t.traced) apps.map(_.sizes()).reduce(_ + _) else Sizes(0, 0))
      }
      OpResult(Some(wall), t.seconds(op, "learn"), t.seconds(op, OnlineSpans: _*),
        cpu, t.cpuSeconds(op, "learn"), t.cpuSeconds(op, OnlineSpans: _*), top,
        apps.flatMap(_.quality).toMap, failures, Some(learned), sizes)
    } catch {
      case e: Exception => OpResult(None, 0, 0, 0, 0, 0, Map.empty, Map.empty, Seq(s"operation threw: $e"), None, Sizes(0, 0))
    } finally apps.foreach(_.cleanup())
  }

  private def associate(spec: String, t: Tracer): Dataset[TrackedObs] =
    t.span("association")(t.force(Association.assignTracks(in.eval(spec).obs, cfg.assoc)))

  private def sizes(tracked: Dataset[TrackedObs], ranked: DataFrame): () => Sizes =
    () => Sizes(tracked.select("trackId").distinct().count(), ranked.count())

  private def scenesWithMissing(spec: String): Seq[Long] =
    in.eval(spec).truth.toDF().where(col("kind") === "object" && col("missingTrack"))
      .select("scene").distinct().collect().map(_.getLong(0)).toSeq.sorted

  private def missingTracks(a: MissingTracks, learned: LearnedModel, t: Tracer): AppRun = {
    val truth = in.eval(a.spec.name).truth
    val tracked = associate(a.spec.name, t)
    val (ranked, fixyTop) = t.span("score.missing_tracks") {
      val r = t.force(Fixy.rankMissingTracks(tracked, learned, cfg))
      (r, topK(r, "trackId", "score", true))
    }
    val (maConf, maTop) = t.span("baselines.consistency") {
      val r = t.force(ModelAssertions.consistency(tracked, "conf", cfg.minTrackObs))
      (r, topK(r, "trackId", "severity", true))
    }
    val (fixyLab, maLab) = t.span("metrics.label") {
      (t.force(Metrics.labelMissingTrackProposals(ranked, tracked, truth)),
        t.force(Metrics.labelMissingTrackProposals(maConf, tracked, truth)))
    }
    val quality = t.span("metrics.quality") {
      val scenes = scenesWithMissing(a.spec.name)
      val recall =
        if (!a.recall) Map.empty[String, Double]
        else {
          val (found, total) = Metrics.recallPerClassTopK(ranked, tracked, truth, k = Checks.TopK)
          Map("recall" -> found.toDouble / total)
        }
      Map(
        "fixy_p10" -> Metrics.precisionAtK(fixyLab, scenes, 10),
        "fixy_p5" -> Metrics.precisionAtK(fixyLab, scenes, 5),
        "fixy_p1" -> Metrics.precisionAtK(fixyLab, scenes, 1),
        "ma_conf_p10" -> Metrics.precisionAtK(maLab, scenes, 10),
        "scene_coverage" -> Metrics.sceneCoverageAtK(fixyLab, scenes, 10),
      ) ++ recall
    }
    AppRun(
      Map("missing_tracks.fixy" -> fixyTop, "missing_tracks.ma_conf" -> maTop),
      quality,
      () => Checks.ranking("missing_tracks.fixy", fixyTop, global = false) ++
        Checks.ranking("missing_tracks.ma_conf", maTop, global = false) ++
        Checks.missingTrackFilters("missing_tracks.fixy", fixyTop, cfg.minTrackObs) ++
        Checks.missingTrackFilters("missing_tracks.ma_conf", maTop, cfg.minTrackObs) ++
        Checks.matchesReference("missing_tracks.fixy", fixyTop,
          Checks.referenceScores(tracked, fixyTop.map(_.id), Fixy.driverFeatures(learned, cfg))),
      sizes(tracked, ranked),
      () => Seq(tracked, ranked, maConf, fixyLab, maLab).foreach(_.unpersist()),
    )
  }

  private def missingObs(a: MissingObs, learned: LearnedModel, t: Tracer): AppRun = {
    val truth = in.eval(a.spec.name).truth
    val tracked = associate(a.spec.name, t)
    val (ranked, top) = t.span("score.missing_obs") {
      val r = t.force(Fixy.rankMissingObservations(tracked, learned, cfg))
      (r, topK(r, "bundleId", "score", false))
    }
    // A candidate bundle is model-only, so all its observations carry the
    // object's ground-truth id.
    val labeled = t.span("metrics.label") {
      val bundleTrueId = tracked.toDF().groupBy("bundleId").agg(min("trueId").as("bTrueId"))
      t.force(ranked.join(bundleTrueId, Seq("bundleId")))
    }
    val quality = t.span("metrics.quality") {
      val globalRank = labeled.withColumn("grank", row_number().over(Window.orderBy(desc("score"), col("bundleId"))))
      val good = truth.toDF().where(col("missingObsKind") === "good").select("trueId", "missingObsFrames").collect()
      // An injection that did not survive association as a candidate is
      // reported as unranked (0), not as a failure.
      val goodRanks = good.toSeq.flatMap { g =>
        globalRank.where(col("bTrueId") === g.getLong(0) && col("frame") === g.getSeq[Int](1).head)
          .select("grank").collect().map(_.getInt(0))
      }
      Map(
        "missing_obs_rank" -> (if (goodRanks.isEmpty) 0.0 else goodRanks.min.toDouble),
        "missing_obs_candidates" -> ranked.count().toDouble,
      )
    }
    AppRun(
      Map("missing_obs.fixy" -> top),
      quality,
      () => Checks.ranking("missing_obs.fixy", top, global = false),
      sizes(tracked, ranked),
      () => Seq(tracked, ranked, labeled).foreach(_.unpersist()),
    )
  }

  private def modelErrors(a: ModelErrors, learned: LearnedModel, t: Tracer): AppRun = {
    val tracked = associate(a.spec.name, t)
    // Strict appear setting (≤ 4 observations), as in the §8.4 experiment.
    val flagged = t.span("baselines.flagged")(ModelAssertions.allFlagged(tracked, appearMinObs = 4))
    val (ranked, top) = t.span("score.model_errors") {
      val r = t.force(Fixy.rankModelErrors(tracked, learned, cfg, excludedTrackIds = flagged))
      (r, topK(r, "trackId", "score", true))
    }
    val (unc, uncTop) = t.span("baselines.uncertainty") {
      val r = t.force(Uncertainty.rankTracks(tracked))
      (r, topK(r, "trackId", "severity", false))
    }
    val (fixyLab, uncLab) = t.span("metrics.label") {
      (t.force(Metrics.labelModelErrorProposals(ranked, tracked)), t.force(Metrics.labelModelErrorProposals(unc, tracked)))
    }
    val quality = t.span("metrics.quality") {
      def globalP10(labeled: DataFrame): Double = {
        val top = labeled.where(col("rank") <= 10)
        val n = top.count()
        if (n == 0) 0.0 else top.where(col("isError")).count().toDouble / math.min(10L, n)
      }
      val maxConf = fixyLab.where(col("rank") <= 10 && col("isError")).agg(max("maxConf")).collect()(0)
      Map(
        "model_error_p10" -> globalP10(fixyLab),
        "uncertainty_p10" -> globalP10(uncLab),
        "model_error_max_conf" -> (if (maxConf.isNullAt(0)) 0.0 else maxConf.getDouble(0)),
      )
    }
    val flaggedSet = flagged.toSet
    AppRun(
      Map("model_errors.fixy" -> top, "model_errors.uncertainty" -> uncTop),
      quality,
      () => Checks.ranking("model_errors.fixy", top, global = true) ++
        Checks.ranking("model_errors.uncertainty", uncTop, global = true) ++
        Checks.notFlagged("model_errors.fixy", top, flaggedSet) ++
        Checks.matchesReference("model_errors.fixy", top, Checks.referenceScores(tracked, top.map(_.id),
          Fixy.driverFeatures(learned, cfg, useDistance = false, useTrackLength = true, invert = true))),
      sizes(tracked, ranked),
      () => Seq(tracked, ranked, unc, fixyLab, uncLab).foreach(_.unpersist()),
    )
  }
}
