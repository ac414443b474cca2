package repro.baselines

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

import repro.core.{Fixy, Sources, TrackedObs}

/** Uncertainty sampling (§8.4 baseline): "we sampled predictions around a
  * confidence threshold" — tracks are ranked by how close their mean model
  * confidence is to the threshold, 0.5 (closest first).
  */
object Uncertainty {
  private val Threshold = 0.5

  /** Severity −|meanConf − 0.5| over the tracks with a model observation. */
  val ranking: Fixy.Ranking =
    Fixy.Ranking(_.hasSource(Sources.Model), t => -math.abs(t.meanConf.get - Threshold))

  /** [[ranking]] alone, ranked globally: [[Fixy.rankModelErrors]]' columns,
    * with `score` named `severity`. Like it, it expects model observations only.
    */
  def rankTracks(tracked: Dataset[TrackedObs])(implicit spark: SparkSession): DataFrame =
    Fixy.rankGlobally(Fixy.rankTracks(tracked, "uncertainty" -> ranking)).drop("method")
      .withColumnRenamed("score", "severity")
}
