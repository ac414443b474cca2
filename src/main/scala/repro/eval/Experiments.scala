package repro.eval

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

import repro.baselines.{ModelAssertions, Uncertainty}
import repro.core._
import repro.perception.{DatasetSpec, PerceptionData, TruthRow}

/** One runner per evaluation table/number (DESIGN.md per-table index). The
  * bench suites and the spark-submit jobs both call into this object so the
  * numbers in EXPERIMENTS.md come from a single code path.
  */
object Experiments {

  final case class Table3Row(method: String, dataset: String, p10: Double, p5: Double, p1: Double)
  final case class Table3Result(rows: Seq[Table3Row], lyftSceneCoverage: Double)
  final case class RecallResult(found: Long, total: Long) { def recall: Double = found.toDouble / total }
  final case class MissingObsResult(goodRank: Long, nCandidates: Long)
  final case class ModelErrorsResult(fixyP10: Double, uncertaintyP10: Double, maxConfAmongFixyHits: Double)

  private def scenesWithMissing(truth: Dataset[TruthRow])(implicit spark: SparkSession): Seq[Long] =
    truth.toDF().where(col("kind") === "object" && col("missingTrack"))
      .select("scene").distinct().collect().map(_.getLong(0)).toSeq.sorted

  /** Shared per-dataset leg of Table 3: learn on `train`, rank `eval`'s
    * model-only tracks with Fixy and both ad-hoc MA orderings, measure
    * precision@{10,5,1} over the scenes that actually contain missing tracks.
    */
  private def table3Leg(
      dataset: String,
      train: DatasetSpec,
      eval: DatasetSpec,
      cfg: FixyConfig,
  )(implicit spark: SparkSession): (Seq[Table3Row], Double) = {
    val learned = Fixy.learn(PerceptionData.observations(train), cfg)
    val evalObs = PerceptionData.observations(eval)
    val tracked = Association.assignTracks(evalObs, cfg.assoc).cache()
    try {
      val truth = PerceptionData.truth(eval)
      val scenes = scenesWithMissing(truth)

      def label(ranked: DataFrame) = Metrics.labelMissingTrackProposals(ranked, tracked, truth).cache()
      def precision(labeled: DataFrame): Map[Int, Double] =
        Seq(10, 5, 1).map(k => k -> Metrics.precisionAtK(labeled, scenes, k)).toMap

      // The random severity ordering is a draw from a distribution; average a
      // few seeds so the baseline row reports its expectation rather than one
      // lucky/unlucky shuffle (the paper's protocol, one audit, cannot be
      // re-drawn — ours can).
      val randSeeds = 1L to 5L
      val fixy = label(Fixy.rankMissingTracks(tracked, learned, cfg))
      val maConf = label(ModelAssertions.consistency(tracked, "conf", cfg.minTrackObs))
      val rand = randSeeds.map(s => label(ModelAssertions.consistency(tracked, "rand", cfg.minTrackObs, seed = s)))
      try {
        val fixyP = precision(fixy)
        val maConfP = precision(maConf)
        val randPs = rand.map(precision)
        def randP(k: Int): Double = randPs.map(_(k)).sum / randSeeds.size

        val rows = Seq(
          Table3Row("FIXY", dataset, fixyP(10), fixyP(5), fixyP(1)),
          Table3Row("Ad-hoc MA (rand)", dataset, randP(10), randP(5), randP(1)),
          Table3Row("Ad-hoc MA (conf)", dataset, maConfP(10), maConfP(5), maConfP(1)),
        )
        (rows, Metrics.sceneCoverageAtK(fixy, scenes, 10))
      } finally (fixy +: maConf +: rand).foreach(_.unpersist())
    } finally tracked.unpersist()
  }

  /** Table 3 (§8.2): both datasets, all three methods. */
  def table3(implicit spark: SparkSession): Table3Result = {
    val cfg = FixyConfig()
    val (lyftRows, lyftCov) = table3Leg("Lyft", PerceptionData.lyftTrain, PerceptionData.lyftEval, cfg)
    val (intRows, _) = table3Leg("Internal", PerceptionData.internalTrain, PerceptionData.internalAudit, cfg)
    Table3Result(lyftRows ++ intRows, lyftCov)
  }

  /** §8.2 recall: the exhaustively audited internal scene (24 missing
    * tracks), Fixy's top-10 ranked errors per class.
    */
  def recallExperiment(implicit spark: SparkSession): RecallResult = {
    val cfg = FixyConfig()
    val learned = Fixy.learn(PerceptionData.observations(PerceptionData.internalTrain), cfg)
    val evalObs = PerceptionData.observations(PerceptionData.internalAudit)
    val tracked = Association.assignTracks(evalObs, cfg.assoc).cache()
    try {
      val truth = PerceptionData.truth(PerceptionData.internalAudit)
      val ranked = Fixy.rankMissingTracks(tracked, learned, cfg)
      val (found, total) = Metrics.recallPerClassTopK(ranked, tracked, truth, k = 10)
      RecallResult(found, total)
    } finally tracked.unpersist()
  }

  /** §8.3: the injected consistent missing observation should rank at the top
    * of the candidate bundles (`rank` is global, across all scenes/distractors).
    */
  def missingObsExperiment(implicit spark: SparkSession): MissingObsResult = {
    val cfg = FixyConfig()
    val spec = PerceptionData.missingObsSim
    val learned = Fixy.learn(PerceptionData.observations(PerceptionData.internalTrain), cfg)
    val tracked = Association.assignTracks(PerceptionData.observations(spec), cfg.assoc).cache()
    try {
      val truth = PerceptionData.truth(spec)
      val ranked = Fixy.rankGlobally(Fixy.rankMissingObservations(tracked, learned, cfg), "bundleId").cache()
      try {
        // The single "good" injected missing observation: its object id and frame.
        val good = truth.toDF().where(col("missingObsKind") === "good")
          .select("trueId", "missingObsFrames").collect()
        require(good.length == 1, s"expected exactly one good injected missing obs, got ${good.length}")
        val goodId = good(0).getLong(0)
        val goodFrame = good(0).getSeq[Int](1).head

        // Bundle majority id: the candidate bundle is model-only, so every obs
        // in it carries the object's trueId.
        val bundleMaj = tracked.toDF().groupBy("bundleId").agg(min("trueId").as("bTrueId"))
        val goodRanked = ranked.join(bundleMaj, Seq("bundleId"))
          .where(col("bTrueId") === goodId && col("frame") === goodFrame)
          .select("rank").collect()
        require(goodRanked.nonEmpty, "good missing observation did not survive as a candidate bundle")
        MissingObsResult(goodRanked.map(_.getInt(0).toLong).min, ranked.count())
      } finally ranked.unpersist()
    } finally tracked.unpersist()
  }

  /** §8.4: model-error finding with no human labels — Fixy (inverted AOF,
    * after excluding ad-hoc-MA-flagged tracks) vs uncertainty sampling,
    * precision over the global top-10; plus the max confidence among Fixy's
    * true-positive proposals (paper: errors with confidence as high as 95%).
    */
  def modelErrorsExperiment(implicit spark: SparkSession): ModelErrorsResult = {
    val cfg = FixyConfig()
    val spec = PerceptionData.modelErrorSim
    val learned = Fixy.learn(PerceptionData.observations(PerceptionData.internalTrain), cfg)
    val modelObs = PerceptionData.observations(spec).filter(_.source == Sources.Model)
    val tracked = Association.assignTracks(modelObs, cfg.assoc).cache()
    try {
      // Strict appear setting (≤ 4 obs): short detection fragments are the
      // appear assertion's territory, and §8.4 searches for what the ad-hoc
      // MAs *cannot* find.
      val flagged = ModelAssertions.allFlagged(tracked, appearMinObs = 4)
      val fixy = Metrics.labelModelErrorProposals(
        Fixy.rankModelErrors(tracked, learned, cfg, excludedTrackIds = flagged), tracked).cache()
      try {
        val unc = Metrics.labelModelErrorProposals(Uncertainty.rankTracks(tracked), tracked)

        def globalP10(labeled: DataFrame): Double = {
          val top = labeled.where(col("rank") <= 10)
          val n = top.count()
          if (n == 0) 0.0 else top.where(col("isError")).count().toDouble / math.min(10L, n)
        }
        val maxConf = fixy.where(col("rank") <= 10 && col("isError"))
          .agg(max("maxConf")).collect()(0) match {
          case r if r.isNullAt(0) => 0.0
          case r                  => r.getDouble(0)
        }
        ModelErrorsResult(globalP10(fixy), globalP10(unc), maxConf)
      } finally fixy.unpersist()
    } finally tracked.unpersist()
  }
}
