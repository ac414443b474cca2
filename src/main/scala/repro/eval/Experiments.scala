package repro.eval

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions.col

import repro.baselines.{ModelAssertions, Uncertainty}
import repro.core._
import repro.perception.{DatasetSpec, PerceptionData, TruthRow}

/** The four §8 results from one run (DESIGN.md per-table index). The bench
  * suites and the spark-submit job both call [[run]], so the numbers in
  * EXPERIMENTS.md come from a single code path. The run only wires rankers to
  * [[Metrics]], which alone judges the proposals.
  */
object Experiments {

  final case class Table3Row(method: String, dataset: String, p10: Double, p5: Double, p1: Double)
  final case class Table3Result(rows: Seq[Table3Row], lyftSceneCoverage: Double)
  final case class RecallResult(found: Long, total: Long) { def recall: Double = found.toDouble / total }
  final case class MissingObsResult(goodRank: Long, nCandidates: Long)
  final case class ModelErrorsResult(fixyP10: Double, uncertaintyP10: Double, maxConfAmongFixyHits: Double)

  /** Table 3, §8.2 recall, §8.3 and §8.4 of one run. */
  final case class Results(table3: Table3Result, recall: RecallResult, missingObs: MissingObsResult, modelErrors: ModelErrorsResult)

  private val cfg = FixyConfig()

  /** Run `body` on `eval`'s associated observations (model ones only when
    * `modelOnly`) and ground truth, both cached for the call.
    */
  private def onEval[A](eval: DatasetSpec, modelOnly: Boolean = false)(
      body: (Dataset[TrackedObs], Dataset[TruthRow]) => A)(implicit spark: SparkSession): A = {
    val obs = PerceptionData.observations(eval)
    val tracked = Association.assignTracks(if (modelOnly) obs.filter(_.source == Sources.Model) else obs, cfg.assoc).cache()
    val truth = PerceptionData.truth(eval).cache()
    try body(tracked, truth) finally { tracked.unpersist(); truth.unpersist() }
  }

  // The random severity ordering is a draw from a distribution; average a
  // few seeds so the baseline row reports its expectation rather than one
  // lucky/unlucky shuffle (the paper's protocol, one audit, cannot be
  // re-drawn — ours can).
  private val randSeeds = 1L to 5L

  /** Table 3's seven rankings: Fixy, MA(conf), and MA(rand) under each seed. */
  private[repro] def table3Rankings(learned: LearnedModel): Seq[(String, Fixy.Ranking)] = Seq(
    "fixy" -> Fixy.missingTracks(learned, cfg),
    "ma-conf" -> ModelAssertions.consistency("conf", cfg.minTrackObs, seed = 0),
  ) ++ randSeeds.map(s => s"ma-rand-$s" -> ModelAssertions.consistency("rand", cfg.minTrackObs, seed = s))

  /** §8.4's pair: Fixy, excluding the tracks the ad-hoc MAs flag, and
    * uncertainty sampling. The appear setting is strict (≤ 4 obs): short
    * detection fragments are the appear assertion's territory, and §8.4
    * searches for what the ad-hoc MAs *cannot* find.
    */
  private[repro] def modelErrorRankings(learned: LearnedModel): Seq[(String, Fixy.Ranking)] = Seq(
    "fixy" -> Fixy.modelErrors(learned, cfg, excluded = ModelAssertions.flags(appearMinObs = 4)),
    "uncertainty" -> Uncertainty.ranking())

  private def of(labeled: DataFrame, method: String): DataFrame = labeled.where(col("method") === method)

  /** One leg of Table 3: rank the model-only tracks with Fixy and both ad-hoc
    * MA orderings (one pass), measure precision@{10,5,1} over the scenes that
    * contain missing tracks. Returns the rows, Fixy's scene coverage at
    * top-10 and Fixy's labelled ranking.
    */
  private def table3Leg(dataset: String, learned: LearnedModel, tracked: Dataset[TrackedObs], truth: Dataset[TruthRow])(
      implicit spark: SparkSession): (Seq[Table3Row], Double, DataFrame) = {
    val labeled = Metrics.labelMissingTrackProposals(Fixy.rankTracks(tracked, table3Rankings(learned): _*).toDF(), tracked, truth)
    val scenes = Metrics.scenesWithMissing(truth)
    def p(method: String)(k: Int): Double = Metrics.precisionAtK(of(labeled, method), scenes, k)
    def row(name: String, pAt: Int => Double) = Table3Row(name, dataset, pAt(10), pAt(5), pAt(1))
    val rows = Seq(
      row("FIXY", p("fixy")),
      row("Ad-hoc MA (rand)", k => randSeeds.map(s => p(s"ma-rand-$s")(k)).sum / randSeeds.size),
      row("Ad-hoc MA (conf)", p("ma-conf")),
    )
    val fixy = of(labeled, "fixy")
    (rows, Metrics.sceneCoverageAtK(fixy, scenes, 10), fixy)
  }

  /** Learn each training split once, associate and rank each evaluation split
    * once, and judge all four results.
    */
  def run(implicit spark: SparkSession): Results = {
    import PerceptionData._
    def learn(train: DatasetSpec) = Fixy.learn(observations(train), cfg)
    val (lyft, internal) = (learn(lyftTrain), learn(internalTrain))

    // Table 3 (§8.2): both datasets, all three methods.
    val (lyftRows, lyftCoverage, _) = onEval(lyftEval)(table3Leg("Lyft", lyft, _, _))
    // §8.2 recall: the exhaustively audited internal scene (24 missing
    // tracks), Fixy's top-10 ranked errors per class, from its labelled
    // Table 3 ranking.
    val (internalRows, recall) = onEval(internalAudit) { (tracked, truth) =>
      val (rows, _, fixy) = table3Leg("Internal", internal, tracked, truth)
      val (found, total) = Metrics.recallPerClassTopK(fixy, truth, k = 10)
      (rows, RecallResult(found, total))
    }

    // §8.3: the injected consistent missing observation should rank at the
    // top of the candidate bundles (`rank` is global, across all
    // scenes/distractors).
    val missingObs = onEval(missingObsSim) { (tracked, truth) =>
      val ranked = Fixy.rankGlobally(Fixy.rankMissingObservations(tracked, internal, cfg), "bundleId")
      val labeled = Metrics.labelMissingObsProposals(ranked, tracked, truth)
      MissingObsResult(Metrics.goodObservationRank(labeled), labeled.count())
    }

    // §8.4: model-error finding with no human labels — Fixy (inverted AOF,
    // after excluding ad-hoc-MA-flagged tracks) vs uncertainty sampling in one
    // pass, precision over the global top-10; plus the max confidence among
    // Fixy's true-positive proposals (paper: errors with confidence up to 95%).
    val modelErrors = onEval(modelErrorSim, modelOnly = true) { (tracked, _) =>
      val ranked = Fixy.rankTracks(tracked, modelErrorRankings(internal): _*)
      val labeled = Metrics.labelModelErrorProposals(Fixy.rankGlobally(ranked, "trackId"), tracked)
      ModelErrorsResult(Metrics.globalPrecisionAtK(of(labeled, "fixy"), 10),
        Metrics.globalPrecisionAtK(of(labeled, "uncertainty"), 10), Metrics.maxConfAmongHits(of(labeled, "fixy"), 10))
    }

    Results(Table3Result(lyftRows ++ internalRows, lyftCoverage), recall, missingObs, modelErrors)
  }
}
