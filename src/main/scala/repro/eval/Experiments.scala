package repro.eval

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions.col

import repro.baselines.{ModelAssertions, Uncertainty}
import repro.core._
import repro.perception.{DatasetSpec, PerceptionData, TruthRow}

/** One runner per evaluation table/number (DESIGN.md per-table index). The
  * bench suites and the spark-submit jobs both call into this object so the
  * numbers in EXPERIMENTS.md come from a single code path. The runners only
  * wire rankers to [[Metrics]], which alone judges the proposals.
  */
object Experiments {

  final case class Table3Row(method: String, dataset: String, p10: Double, p5: Double, p1: Double)
  final case class Table3Result(rows: Seq[Table3Row], lyftSceneCoverage: Double)
  final case class RecallResult(found: Long, total: Long) { def recall: Double = found.toDouble / total }
  final case class MissingObsResult(goodRank: Long, nCandidates: Long)
  final case class ModelErrorsResult(fixyP10: Double, uncertaintyP10: Double, maxConfAmongFixyHits: Double)

  private val cfg = FixyConfig()

  /** Learn on `train`; run `body` on `eval`'s associated observations (model
    * ones only when `modelOnly`) and ground truth, both cached for the run.
    */
  private def onEval[A](train: DatasetSpec, eval: DatasetSpec, modelOnly: Boolean = false)(
      body: (LearnedModel, Dataset[TrackedObs], Dataset[TruthRow]) => A)(implicit spark: SparkSession): A = {
    val learned = Fixy.learn(PerceptionData.observations(train), cfg)
    val obs = PerceptionData.observations(eval)
    val tracked = Association.assignTracks(if (modelOnly) obs.filter(_.source == Sources.Model) else obs, cfg.assoc).cache()
    val truth = PerceptionData.truth(eval).cache()
    try body(learned, tracked, truth) finally { tracked.unpersist(); truth.unpersist() }
  }

  private def of(labeled: DataFrame, method: String): DataFrame = labeled.where(col("method") === method)

  /** Shared per-dataset leg of Table 3: learn on `train`, rank `eval`'s
    * model-only tracks with Fixy and both ad-hoc MA orderings (one pass),
    * measure precision@{10,5,1} over the scenes that contain missing tracks.
    */
  private def table3Leg(dataset: String, train: DatasetSpec, eval: DatasetSpec)(
      implicit spark: SparkSession): (Seq[Table3Row], Double) =
    onEval(train, eval) { (learned, tracked, truth) =>
      // The random severity ordering is a draw from a distribution; average a
      // few seeds so the baseline row reports its expectation rather than one
      // lucky/unlucky shuffle (the paper's protocol, one audit, cannot be
      // re-drawn — ours can).
      val randSeeds = 1L to 5L
      val rankings = Seq(
        "fixy" -> Fixy.missingTracks(learned, cfg),
        "ma-conf" -> ModelAssertions.consistency("conf", cfg.minTrackObs, seed = 0),
      ) ++ randSeeds.map(s => s"ma-rand-$s" -> ModelAssertions.consistency("rand", cfg.minTrackObs, seed = s))
      val labeled = Metrics.labelMissingTrackProposals(Fixy.rankTracks(tracked, rankings: _*).toDF(), tracked, truth)
      val scenes = Metrics.scenesWithMissing(truth)
      def p(method: String)(k: Int): Double = Metrics.precisionAtK(of(labeled, method), scenes, k)
      def row(name: String, pAt: Int => Double) = Table3Row(name, dataset, pAt(10), pAt(5), pAt(1))
      val rows = Seq(
        row("FIXY", p("fixy")),
        row("Ad-hoc MA (rand)", k => randSeeds.map(s => p(s"ma-rand-$s")(k)).sum / randSeeds.size),
        row("Ad-hoc MA (conf)", p("ma-conf")),
      )
      (rows, Metrics.sceneCoverageAtK(of(labeled, "fixy"), scenes, 10))
    }

  /** Table 3 (§8.2): both datasets, all three methods. */
  def table3(implicit spark: SparkSession): Table3Result = {
    val (lyftRows, lyftCov) = table3Leg("Lyft", PerceptionData.lyftTrain, PerceptionData.lyftEval)
    val (intRows, _) = table3Leg("Internal", PerceptionData.internalTrain, PerceptionData.internalAudit)
    Table3Result(lyftRows ++ intRows, lyftCov)
  }

  /** §8.2 recall: the exhaustively audited internal scene (24 missing
    * tracks), Fixy's top-10 ranked errors per class.
    */
  def recallExperiment(implicit spark: SparkSession): RecallResult =
    onEval(PerceptionData.internalTrain, PerceptionData.internalAudit) { (learned, tracked, truth) =>
      val (found, total) = Metrics.recallPerClassTopK(Fixy.rankMissingTracks(tracked, learned, cfg), tracked, truth, k = 10)
      RecallResult(found, total)
    }

  /** §8.3: the injected consistent missing observation should rank at the top
    * of the candidate bundles (`rank` is global, across all scenes/distractors).
    */
  def missingObsExperiment(implicit spark: SparkSession): MissingObsResult =
    onEval(PerceptionData.internalTrain, PerceptionData.missingObsSim) { (learned, tracked, truth) =>
      val ranked = Fixy.rankGlobally(Fixy.rankMissingObservations(tracked, learned, cfg), "bundleId")
      val labeled = Metrics.labelMissingObsProposals(ranked, tracked, truth)
      MissingObsResult(Metrics.goodObservationRank(labeled), labeled.count())
    }

  /** §8.4: model-error finding with no human labels — Fixy (inverted AOF,
    * after excluding ad-hoc-MA-flagged tracks) vs uncertainty sampling in one
    * pass, precision over the global top-10; plus the max confidence among
    * Fixy's true-positive proposals (paper: errors with confidence up to 95%).
    */
  def modelErrorsExperiment(implicit spark: SparkSession): ModelErrorsResult =
    onEval(PerceptionData.internalTrain, PerceptionData.modelErrorSim, modelOnly = true) { (learned, tracked, _) =>
      // Strict appear setting (≤ 4 obs): short detection fragments are the
      // appear assertion's territory, and §8.4 searches for what the ad-hoc
      // MAs *cannot* find.
      val ranked = Fixy.rankTracks(tracked,
        "fixy" -> Fixy.modelErrors(learned, cfg, excluded = ModelAssertions.flags(appearMinObs = 4)),
        "uncertainty" -> Uncertainty.ranking())
      val labeled = Metrics.labelModelErrorProposals(Fixy.rankGlobally(ranked, "trackId"), tracked)
      ModelErrorsResult(Metrics.globalPrecisionAtK(of(labeled, "fixy"), 10),
        Metrics.globalPrecisionAtK(of(labeled, "uncertainty"), 10), Metrics.maxConfAmongHits(of(labeled, "fixy"), 10))
    }
}
