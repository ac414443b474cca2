package repro.baselines

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

import repro.core.{Fixy, Sources, TrackedObs}

/** Uncertainty sampling (§8.4 baseline): "we sampled predictions around a
  * confidence threshold" — tracks are ranked by how close their mean model
  * confidence is to the threshold (closest first).
  */
object Uncertainty {

  /** Severity −|meanConf − threshold| over the tracks with a model observation. */
  def ranking(threshold: Double = 0.5): Fixy.Ranking =
    Fixy.Ranking(_.hasSource(Sources.Model), t => -math.abs(t.meanConf.get - threshold))

  /** [[ranking]] alone, ranked globally. Like [[Fixy.rankModelErrors]], it expects model
    * observations only. Columns: scene, trackId, nObs, meanConf, maxConf, severity, `rank`.
    */
  def rankTracks(tracked: Dataset[TrackedObs], threshold: Double = 0.5)(implicit spark: SparkSession): DataFrame =
    Fixy.rankGlobally(Fixy.rankTracks(tracked, "uncertainty" -> ranking(threshold)), "trackId")
      .withColumnRenamed("score", "severity").select("scene", "trackId", "nObs", "meanConf", "maxConf", "severity", "rank")
}
