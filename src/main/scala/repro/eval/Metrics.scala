package repro.eval

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.core.TrackedObs
import repro.perception.TruthRow

/** Evaluation metrics: the paper's human auditor judging the top-k proposals.
  * This is the only code that judges by generator ground truth (`trueId` /
  * [[TruthRow]]). The rankers own the order; a metric reads their `rank`.
  */
object Metrics {

  /** Majority ground-truth id per `key` (a track or bundle id), as `majTrueId`;
    * ties go to the smaller id.
    */
  private[eval] def majority(tracked: Dataset[TrackedObs], key: String): DataFrame = {
    val counts = tracked.toDF().groupBy(key, "trueId").agg(count(lit(1)).as("cnt"))
    val w = Window.partitionBy(key).orderBy(desc("cnt"), col("trueId"))
    counts.withColumn("rn", row_number().over(w)).where(col("rn") === 1)
      .select(col(key), col("trueId").as("majTrueId"))
  }

  /** Majority ground-truth id per track: the object a track proposal stands for. */
  def majorityTrueId(tracked: Dataset[TrackedObs])(implicit spark: SparkSession): DataFrame =
    majority(tracked, "trackId")

  /** The §8.2 answer key: the real objects whose human track is entirely missing. */
  def missingObjects(truth: Dataset[TruthRow]): Seq[TruthRow] =
    truth.filter(t => t.kind == "object" && t.missingTrack).collect().toSeq

  /** The scenes §8.2 precision is averaged over: those with a missing object. */
  def scenesWithMissing(truth: Dataset[TruthRow]): Seq[Long] =
    missingObjects(truth).map(_.scene).distinct.sorted

  /** Attach `majTrueId` and an `isError` flag to ranked missing-track
    * proposals: a proposal is a true error iff its majority object is in the
    * answer key ([[missingObjects]]).
    */
  def labelMissingTrackProposals(
      ranked: DataFrame,
      tracked: Dataset[TrackedObs],
      truth: Dataset[TruthRow],
  )(implicit spark: SparkSession): DataFrame =
    ranked.join(majorityTrueId(tracked), Seq("trackId"))
      .withColumn("isError", col("majTrueId").isin(missingObjects(truth).map(_.trueId): _*))

  /** Attach `isError` for the §8.4 model-error experiment: any track whose
    * majority id is not a real object (ghost or novel error).
    */
  def labelModelErrorProposals(
      ranked: DataFrame,
      tracked: Dataset[TrackedObs],
  )(implicit spark: SparkSession): DataFrame =
    ranked.join(majorityTrueId(tracked), Seq("trackId"))
      .withColumn("isError", col("majTrueId") < 0)

  /** Attach the bundle's object (`majTrueId`) and `isError` to ranked §8.3
    * candidate bundles: a bundle is the error sought iff it is the one injected
    * good missing observation, its object at its frame.
    */
  def labelMissingObsProposals(ranked: DataFrame, tracked: Dataset[TrackedObs], truth: Dataset[TruthRow]): DataFrame = {
    val good = truth.filter(_.missingObsKind == "good").collect()
    require(good.length == 1, s"expected exactly one good injected missing obs, got ${good.length}")
    ranked.join(majority(tracked, "bundleId"), Seq("bundleId"))
      .withColumn("isError", col("majTrueId") === good(0).trueId && col("frame") === good(0).missingObsFrames.head)
  }

  /** §8.3: the best rank of the good missing observation among labelled candidates. */
  def goodObservationRank(labeled: DataFrame): Long = {
    val ranks = labeled.where(col("isError")).select("rank").collect().map(_.getInt(0).toLong)
    require(ranks.nonEmpty, "good missing observation did not survive as a candidate bundle")
    ranks.min
  }

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

  /** §8.4 precision over one global top-k: hits among the n ≤ k proposals
    * ranked, over n; 0 when nothing is ranked.
    */
  def globalPrecisionAtK(labeled: DataFrame, k: Int): Double = {
    val r = labeled.where(col("rank") <= k).agg(count(lit(1)), sum(when(col("isError"), 1).otherwise(0))).head()
    if (r.getLong(0) == 0) 0.0 else r.getLong(1).toDouble / math.min(k.toLong, r.getLong(0))
  }

  /** §8.4: the highest model confidence among the true errors in the global
    * top-k (paper: errors with confidence as high as 95%); 0 without one.
    */
  def maxConfAmongHits(labeled: DataFrame, k: Int): Double = {
    val r = labeled.where(col("rank") <= k && col("isError")).agg(max("maxConf")).head()
    if (r.isNullAt(0)) 0.0 else r.getDouble(0)
  }

  /** §8.2 recall protocol: distinct objects of the answer key found within
    * each scene's top-k proposals *per class* by the ranking's per-scene
    * `rank`; returns (found, total missing).
    */
  def recallPerClassTopK(
      ranked: DataFrame,
      tracked: Dataset[TrackedObs],
      truth: Dataset[TruthRow],
      k: Int = 10,
  )(implicit spark: SparkSession): (Long, Long) = {
    val hits = labelMissingTrackProposals(ranked, tracked, truth)
      .withColumn("clsRank", row_number().over(Window.partitionBy("scene", "cls").orderBy("rank")))
      .where(col("clsRank") <= k && col("isError"))
    (hits.select("majTrueId").distinct().count(), missingObjects(truth).size.toLong)
  }
}
