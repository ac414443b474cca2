package repro.eval

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.core.TrackedObs
import repro.perception.TruthRow

/** Evaluation metrics. This is the only code that judges by generator ground
  * truth (`trueId` / [[TruthRow]]) — it plays the role of the paper's human
  * auditor judging the top-k proposals.
  */
object Metrics {

  /** Majority ground-truth id per track (ties: smaller id), computed from the
    * observations' `trueId`.
    */
  def majorityTrueId(tracked: Dataset[TrackedObs])(implicit spark: SparkSession): DataFrame = {
    val counts = tracked.toDF().groupBy("trackId", "trueId").agg(count(lit(1)).as("cnt"))
    val w = Window.partitionBy("trackId").orderBy(desc("cnt"), col("trueId"))
    counts.withColumn("rn", row_number().over(w)).where(col("rn") === 1)
      .select(col("trackId"), col("trueId").as("majTrueId"))
  }

  /** Attach `majTrueId` and an `isError` flag to ranked missing-track
    * proposals: a proposal is a true error iff its majority object is a real
    * object whose human track was entirely missing.
    */
  def labelMissingTrackProposals(
      ranked: DataFrame,
      tracked: Dataset[TrackedObs],
      truth: Dataset[TruthRow],
  )(implicit spark: SparkSession): DataFrame = {
    val maj = majorityTrueId(tracked)
    val missing = truth.toDF()
      .where(col("kind") === "object" && col("missingTrack"))
      .select(col("trueId").as("majTrueId"))
      .withColumn("isError", lit(true))
    ranked.join(maj, Seq("trackId"))
      .join(missing, Seq("majTrueId"), "left")
      .na.fill(false, Seq("isError"))
  }

  /** Attach `isError` for the §8.4 model-error experiment: any track whose
    * majority id is not a real object (ghost or novel error).
    */
  def labelModelErrorProposals(
      ranked: DataFrame,
      tracked: Dataset[TrackedObs],
  )(implicit spark: SparkSession): DataFrame =
    ranked.join(majorityTrueId(tracked), Seq("trackId"))
      .withColumn("isError", col("majTrueId") < 0)

  /** Per-scene hit/proposal counts at rank ≤ k. */
  private def perScene(labeled: DataFrame, k: Int): Map[Long, (Long, Long)] =
    labeled
      .groupBy("scene")
      .agg(
        sum(when(col("rank") <= k && col("isError"), 1).otherwise(0)).as("hits"),
        sum(when(col("rank") <= k, 1).otherwise(0)).as("cnt"),
      )
      .collect()
      .map(r => r.getLong(0) -> ((r.getLong(1), r.getLong(2))))
      .toMap

  /** Macro-averaged precision@k over `scenes` (§8.2 protocol: top-k per
    * scene; "in some cases fewer than 10 potential errors were flagged; we
    * use the maximum number in these cases"). Scenes without proposals score 0.
    */
  def precisionAtK(labeled: DataFrame, scenes: Seq[Long], k: Int): Double = {
    require(scenes.nonEmpty, "precisionAtK needs at least one scene")
    val per = perScene(labeled, k)
    scenes.map { s =>
      per.get(s) match {
        case Some((hits, cnt)) if cnt > 0 => hits.toDouble / math.min(k.toLong, cnt)
        case _                            => 0.0
      }
    }.sum / scenes.size
  }

  /** Fraction of `scenes` whose top-k contains at least one true error
    * (§8.2: "LOA found errors in 100% of the scenes with errors").
    */
  def sceneCoverageAtK(labeled: DataFrame, scenes: Seq[Long], k: Int): Double = {
    require(scenes.nonEmpty, "sceneCoverageAtK needs at least one scene")
    val per = perScene(labeled, k)
    scenes.count(s => per.get(s).exists(_._1 > 0)).toDouble / scenes.size
  }

  /** §8.2 recall protocol: distinct missing objects found within the top-k
    * proposals *per class*; returns (found, total missing).
    */
  def recallPerClassTopK(
      ranked: DataFrame,
      tracked: Dataset[TrackedObs],
      truth: Dataset[TruthRow],
      k: Int = 10,
  )(implicit spark: SparkSession): (Long, Long) = {
    val missingIds = truth.toDF()
      .where(col("kind") === "object" && col("missingTrack"))
      .select("trueId").collect().map(_.getLong(0)).toSet
    val w = Window.partitionBy("scene", "cls").orderBy(desc("score"), col("trackId"))
    val top = ranked.withColumn("clsRank", row_number().over(w)).where(col("clsRank") <= k)
    val found = top.join(majorityTrueId(tracked), Seq("trackId"))
      .select("majTrueId").distinct().collect().map(_.getLong(0))
      .count(missingIds.contains)
    (found.toLong, missingIds.size.toLong)
  }
}
