package repro.eval

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Dataset, Encoders, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{BooleanType, LongType}

import repro.core.TrackedObs
import repro.perception.TruthRow

/** Evaluation metrics: the paper's human auditor judging the top-k proposals.
  * This is the only code that judges by generator ground truth (`trueId` /
  * [[TruthRow]]). The rankers own the order; a metric reads their `rank`.
  *
  * What it judges is small, so it judges on the driver: labelling collects the
  * ranking and the `(key, trueId)` pairs into a local frame, and a metric
  * collects the rows it reads once and counts them in plain Scala.
  */
object Metrics {

  /** The object each key (a track or bundle id) of `pairs` stands for: the
    * `trueId` with the most `(key, trueId)` pairs, ties to the smaller id.
    */
  private[eval] def majority(pairs: Iterable[(Long, Long)]): Map[Long, Long] =
    pairs.groupMapReduce(identity)(_ => 1)(_ + _)
      .groupMapReduce { case ((key, _), _) => key } { case ((_, id), n) => (-n, id) }(Ordering[(Int, Long)].min)
      .map { case (key, (_, id)) => key -> id }

  /** The §8.2 answer key: the real objects whose human track is entirely missing. */
  def missingObjects(truth: Dataset[TruthRow]): Seq[TruthRow] =
    truth.filter(t => t.kind == "object" && t.missingTrack).collect().toSeq

  /** The scenes §8.2 precision is averaged over: those with a missing object. */
  def scenesWithMissing(truth: Dataset[TruthRow]): Seq[Long] =
    missingObjects(truth).map(_.scene).distinct.sorted

  /** `ranked`'s rows, each with its `key`'s [[majority]] object as
    * `majTrueId` and `isError(row, majTrueId)` as `isError`, in a local frame.
    * A ranked key without observations in `tracked` is dropped.
    */
  private def label(ranked: DataFrame, tracked: Dataset[TrackedObs], key: String)(
      isError: (Row, Long) => Boolean): DataFrame = {
    val rows = ranked.collect()
    val keys = rows.map(_.getAs[Long](key)).toSet
    val pairs = tracked.select(col(key), col("trueId")).as(Encoders.tuple(Encoders.scalaLong, Encoders.scalaLong)).collect()
    val objects = majority(pairs.filter(p => keys(p._1)))
    val labeled = rows.toSeq.flatMap(r => objects.get(r.getAs[Long](key)).map(o => Row.fromSeq(r.toSeq :+ o :+ isError(r, o))))
    val schema = ranked.schema.add("majTrueId", LongType, nullable = false).add("isError", BooleanType, nullable = false)
    ranked.sparkSession.createDataFrame(labeled.asJava, schema)
  }

  /** Attach `majTrueId` and an `isError` flag to ranked missing-track
    * proposals: a proposal is a true error iff its majority object is in the
    * answer key ([[missingObjects]]).
    */
  def labelMissingTrackProposals(ranked: DataFrame, tracked: Dataset[TrackedObs], truth: Dataset[TruthRow]): DataFrame = {
    val answerKey = missingObjects(truth).map(_.trueId).toSet
    label(ranked, tracked, "trackId")((_, obj) => answerKey(obj))
  }

  /** Attach `isError` for the §8.4 model-error experiment: any track whose
    * majority id is not a real object (ghost or novel error).
    */
  def labelModelErrorProposals(ranked: DataFrame, tracked: Dataset[TrackedObs]): DataFrame =
    label(ranked, tracked, "trackId")((_, obj) => obj < 0)

  /** Attach the bundle's object (`majTrueId`) and `isError` to ranked §8.3
    * candidate bundles: a bundle is the error sought iff it is the one injected
    * good missing observation, its object at its frame.
    */
  def labelMissingObsProposals(ranked: DataFrame, tracked: Dataset[TrackedObs], truth: Dataset[TruthRow]): DataFrame = {
    val good = truth.filter(_.missingObsKind == "good").collect()
    require(good.length == 1, s"expected exactly one good injected missing obs, got ${good.length}")
    val (goodObj, goodFrame) = (good(0).trueId, good(0).missingObsFrames.head)
    label(ranked, tracked, "bundleId")((r, obj) => obj == goodObj && r.getAs[Int]("frame") == goodFrame)
  }

  /** §8.3: the best rank of the good missing observation among labelled candidates. */
  def goodObservationRank(labeled: DataFrame): Long = {
    val ranks = labeled.where(col("isError")).select("rank").collect().map(_.getInt(0).toLong)
    require(ranks.nonEmpty, "good missing observation did not survive as a candidate bundle")
    ranks.min
  }

  /** `cols` of the labelled rows ranked ≤ k: the one collect of a top-k metric. */
  private def topK(labeled: DataFrame, k: Int, cols: String*): Array[Row] =
    labeled.where(col("rank") <= k).select(cols.map(col): _*).collect()

  /** Per-scene (hits, proposals) at rank ≤ k. */
  private def perScene(labeled: DataFrame, k: Int): Map[Long, (Int, Int)] =
    topK(labeled, k, "scene", "isError").toSeq.groupMapReduce(_.getLong(0))(r => (if (r.getBoolean(1)) 1 else 0, 1)) {
      case ((h1, n1), (h2, n2)) => (h1 + h2, n1 + n2)
    }

  /** Macro-averaged precision@k over `scenes` (§8.2 protocol: top-k per
    * scene; "in some cases fewer than 10 potential errors were flagged; we
    * use the maximum number in these cases"). Scenes without proposals score 0.
    */
  def precisionAtK(labeled: DataFrame, scenes: Seq[Long], k: Int): Double = {
    require(scenes.nonEmpty, "precisionAtK needs at least one scene")
    val per = perScene(labeled, k)
    scenes.map(s => per.get(s).fold(0.0) { case (hits, n) => hits.toDouble / math.min(k, n) }).sum / scenes.size
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
    val top = topK(labeled, k, "isError").map(_.getBoolean(0))
    if (top.isEmpty) 0.0 else top.count(identity).toDouble / math.min(k, top.length)
  }

  /** §8.4: the highest model confidence among the true errors in the global
    * top-k (paper: errors with confidence as high as 95%); 0 without one.
    */
  def maxConfAmongHits(labeled: DataFrame, k: Int): Double =
    topK(labeled, k, "isError", "maxConf").collect { case Row(true, conf: Double) => conf }.maxOption.getOrElse(0.0)

  /** §8.2 recall protocol: distinct objects of the answer key found within
    * each scene's top-k proposals *per class* by the ranking's per-scene
    * `rank`; returns (found, total missing).
    */
  def recallPerClassTopK(
      ranked: DataFrame,
      tracked: Dataset[TrackedObs],
      truth: Dataset[TruthRow],
      k: Int = 10,
  ): (Long, Long) =
    recallPerClassTopK(labelMissingTrackProposals(ranked, tracked, truth), truth, k)

  /** [[recallPerClassTopK]] of a ranking already labelled by [[labelMissingTrackProposals]]. */
  def recallPerClassTopK(labeled: DataFrame, truth: Dataset[TruthRow], k: Int): (Long, Long) = {
    val rows = labeled.select("scene", "cls", "rank", "isError", "majTrueId").collect().toSeq
    val found = rows.groupMap(r => (r.getLong(0), r.getString(1)))(identity).values
      .flatMap(_.sortBy(_.getInt(2)).take(k)).collect { case Row(_, _, _, true, obj: Long) => obj }.toSet
    (found.size.toLong, missingObjects(truth).size.toLong)
  }
}
