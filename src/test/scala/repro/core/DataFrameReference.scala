package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** The DataFrame formulation of Fixy's scorers: Table 2's features π as
  * Spark columns, their learned likelihoods as broadcast-KDE UDFs,
  * transitions as a `lag` window, Eq. 2 as `groupBy` aggregations and joins.
  * It shares only the learned KDEs' lookups with [[Fixy]]'s per-scene
  * factor-graph pass, so the differential tests in `FixySpec` hold two
  * independent formulations to the same scores.
  */
object DataFrameReference {
  import FactorGraph.Eps

  /** `model`'s likelihood of a (class, value) of the learned feature
    * `feature`, as a UDF; a null class is an instance without one.
    */
  private def likelihoodUdf(model: LearnedModel, feature: String)(implicit spark: SparkSession) = {
    val kde = spark.sparkContext.broadcast(model.byFeature(feature))
    udf((cls: String, v: Double) => kde.value.likelihood(Option(cls), v))
  }

  /** The manual distance distribution (Table 2 "Distance"). */
  private val distanceUdf = udf((d: Double) => math.exp(-d / Fixy.DistanceScale))

  /** Per-bundle representative centers + the speed to the previous bundle of
    * the same track (the transition feature's raw value). `bcls` is the
    * bundle's deterministic class representative (min, matching the driver
    * reference semantics).
    */
  private[core] def bundleTransitions(trackedDf: DataFrame, cfg: FixyConfig): DataFrame = {
    val centers = trackedDf
      .groupBy("scene", "trackId", "bundleId", "frame")
      .agg(avg("x").as("cx"), avg("y").as("cy"), min("cls").as("bcls"))
    val w = Window.partitionBy("trackId").orderBy("frame", "bundleId")
    centers
      .withColumn("pcx", lag("cx", 1).over(w))
      .withColumn("pcy", lag("cy", 1).over(w))
      .withColumn("pframe", lag("frame", 1).over(w))
      .where(col("pframe").isNotNull && col("frame") > col("pframe"))
      .withColumn(
        "speed",
        hypot(col("cx") - col("pcx"), col("cy") - col("pcy")) * cfg.fps / (col("frame") - col("pframe")),
      )
      .select("scene", "trackId", "bundleId", "frame", "bcls", "speed")
  }

  /** Score every track of `tracked` per Eq. 2.
    *
    * Feature set toggles mirror the applications of §7/§8:
    *  - `useDistance` — include the manual distance severity factor (off for
    *     the model-error application, §8.4).
    *  - `useTrackLength` — include the learned track-length factor (on for
    *     the model-error application).
    *  - `invert` — apply the `1 − x` AOF to every learned factor (searching
    *     for unlikely tracks).
    *
    * Output columns: scene, trackId, score, nObs, nHuman, maxConf, cls.
    */
  def scoreTracks(
      tracked: Dataset[TrackedObs],
      model: LearnedModel,
      cfg: FixyConfig = FixyConfig(),
      useDistance: Boolean = true,
      useTrackLength: Boolean = false,
      invert: Boolean = false,
  )(implicit spark: SparkSession): DataFrame = {
    val (volLikU, distLikU, velLikU) = (likelihoodUdf(model, "volume"), distanceUdf, likelihoodUdf(model, "velocity"))
    val lenLikU = likelihoodUdf(model, "count")
    def aof(p: org.apache.spark.sql.Column): org.apache.spark.sql.Column =
      if (invert) lit(1.0) - p else p
    def lnF(p: org.apache.spark.sql.Column): org.apache.spark.sql.Column =
      log(greatest(lit(Eps), aof(p)))

    val df = tracked.toDF()

    val perObs = df
      .withColumn("lnVol", lnF(volLikU(col("cls"), col("l") * col("w") * col("h"))))
      .withColumn("lnDist", if (useDistance) lnF(distLikU(hypot(col("x"), col("y")))) else lit(0.0))
    val obsFactorsPerObs = if (useDistance) 2 else 1

    val obsAgg = perObs
      .groupBy("scene", "trackId")
      .agg(
        sum(col("lnVol") + col("lnDist")).as("obsLog"),
        count(lit(1)).as("nObs"),
        sum(when(col("source") === Sources.Human, 1).otherwise(0)).as("nHuman"),
        max(when(col("source") === Sources.Model, col("conf"))).as("maxConf"),
        min("cls").as("cls"),
      )

    val transAgg = bundleTransitions(df, cfg)
      .withColumn("lnVel", lnF(velLikU(col("bcls"), col("speed"))))
      .groupBy("scene", "trackId")
      .agg(sum("lnVel").as("transLog"), count(lit(1)).as("nTrans"))

    val joined = obsAgg
      .join(transAgg, Seq("scene", "trackId"), "left")
      .na.fill(Map("transLog" -> 0.0, "nTrans" -> 0L))

    val withLen =
      if (useTrackLength)
        joined
          .withColumn("lenLog", lnF(lenLikU(lit(null).cast("string"), col("nObs").cast("double"))))
          .withColumn("nLenFactors", lit(1L))
      else joined.withColumn("lenLog", lit(0.0)).withColumn("nLenFactors", lit(0L))

    withLen
      .withColumn("nFactors", col("nObs") * obsFactorsPerObs + col("nTrans") + col("nLenFactors"))
      .withColumn("score", (col("obsLog") + col("transLog") + col("lenLog")) / col("nFactors"))
      .select("scene", "trackId", "score", "nObs", "nHuman", "maxConf", "cls")
  }

  /** Rank model-only bundles that belong to tracks containing at least one
    * human proposal — the AOF of §8.3: P(bundle with human) := 0,
    * P(track without human) := 0. We additionally zero bundles at frames
    * where the same track already has a human observation (the label exists
    * at that frame; it merely failed same-frame bundling), which is the
    * track-level reading of "bundle contains a human proposal". Higher score
    * = more likely a real missing label. Adds `rank` (1-based, per scene).
    */
  def rankMissingObservations(
      tracked: Dataset[TrackedObs],
      model: LearnedModel,
      cfg: FixyConfig = FixyConfig(),
  )(implicit spark: SparkSession): DataFrame = {
    val (volLikU, distLikU, velLikU) = (likelihoodUdf(model, "volume"), distanceUdf, likelihoodUdf(model, "velocity"))
    def lnF(p: org.apache.spark.sql.Column) = log(greatest(lit(Eps), p))

    val df = tracked.toDF()

    val bundleAgg = df
      .withColumn("lnVol", lnF(volLikU(col("cls"), col("l") * col("w") * col("h"))))
      .withColumn("lnDist", lnF(distLikU(hypot(col("x"), col("y")))))
      .groupBy("scene", "trackId", "bundleId", "frame")
      .agg(
        sum(col("lnVol") + col("lnDist")).as("obsLog"),
        count(lit(1)).as("nObs"),
        sum(when(col("source") === Sources.Human, 1).otherwise(0)).as("nHumanInBundle"),
        min("cls").as("cls"),
      )

    val trackHuman = df
      .groupBy("trackId")
      .agg(sum(when(col("source") === Sources.Human, 1).otherwise(0)).as("nHumanInTrack"))

    val humanFrames = df
      .where(col("source") === Sources.Human)
      .select(col("trackId"), col("frame"))
      .distinct()
      .withColumn("humanAtFrame", lit(true))

    val trans = bundleTransitions(df, cfg)
      .withColumn("lnVel", lnF(velLikU(col("bcls"), col("speed"))))
      .select("bundleId", "lnVel")

    val scored = bundleAgg
      .join(trackHuman, Seq("trackId"))
      .join(humanFrames, Seq("trackId", "frame"), "left")
      .join(trans, Seq("bundleId"), "left")
      .where(col("nHumanInBundle") === 0 && col("nHumanInTrack") > 0 && col("humanAtFrame").isNull)
      .withColumn("nTrans", when(col("lnVel").isNotNull, 1L).otherwise(0L))
      .withColumn(
        "score",
        (col("obsLog") + coalesce(col("lnVel"), lit(0.0))) / (col("nObs") * 2 + col("nTrans")),
      )
      .select("scene", "trackId", "bundleId", "frame", "score", "nObs", "cls")
    val w = Window.partitionBy("scene").orderBy(desc("score"), col("bundleId"))
    scored.withColumn("rank", row_number().over(w))
  }
}
