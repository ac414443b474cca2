package repro.baselines

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

import repro.core.{Fixy, Sources, TrackedObs}

/** Uncertainty sampling (§8.4 baseline): "we sampled predictions around a
  * confidence threshold" — tracks are ranked by how close their mean model
  * confidence is to the threshold (closest first).
  */
object Uncertainty {

  /** Severity −|meanConf − threshold|, ranked in Fixy's per-scene pass and
    * then globally. Like [[Fixy.rankModelErrors]], it expects model
    * observations only (`nObs` counts all of a track's observations).
    * Columns: scene, trackId, nObs, meanConf, maxConf, severity, `rank`.
    */
  def rankTracks(tracked: Dataset[TrackedObs], threshold: Double = 0.5)(implicit spark: SparkSession): DataFrame = {
    val ranked = Fixy.rankTracks(tracked, _.hasSource(Sources.Model))(t => -math.abs(t.meanConf.get - threshold))
    Fixy.rankGlobally(ranked, "trackId").withColumnRenamed("score", "severity")
      .select("scene", "trackId", "nObs", "meanConf", "maxConf", "severity", "rank")
  }
}
