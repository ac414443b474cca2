package repro.baselines

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.core.{Loa, Sources, TrackedObs}

/** The ad-hoc model assertions of Kang et al. (MLSys 2020) used as baselines
  * in §8.2/§8.4: black-box predicates over associated observations with
  * hand-specified severity orderings.
  */
object ModelAssertions {

  /** §8.2 "consistency" assertion: a time-consistent model track with no
    * human label is flagged as a potential missing label. Candidate set
    * matches Fixy's (model-only tracks with ≥ `minObs` observations); the
    * ad-hoc part is the severity ordering:
    *  - `rand`: uniformly random severity with the given seed;
    *  - `conf`: mean model confidence, highest first.
    * Adds `rank` (1-based, per scene).
    */
  def consistency(
      tracked: Dataset[TrackedObs],
      ordering: String,
      minObs: Int = 3,
      seed: Long = 0,
  )(implicit spark: SparkSession): DataFrame = {
    val agg = tracked.toDF()
      .groupBy("scene", "trackId")
      .agg(
        count(lit(1)).as("nObs"),
        sum(when(col("source") === Sources.Human, 1).otherwise(0)).as("nHuman"),
        avg(when(col("source") === Sources.Model, col("conf"))).as("meanConf"),
        min("cls").as("cls"),
      )
      .where(col("nHuman") === 0 && col("nObs") >= minObs)
    val severity = ordering match {
      case "rand" => agg.withColumn("severity", abs(hash(col("trackId"), lit(seed))).cast("double"))
      case "conf" => agg.withColumn("severity", col("meanConf"))
      case other  => throw new IllegalArgumentException(s"unknown ordering: $other")
    }
    val w = Window.partitionBy("scene").orderBy(desc("severity"), col("trackId"))
    severity.withColumn("rank", row_number().over(w))
  }

  /** §8.4 "appear": an observation should have observations in nearby
    * timestamps — flags tracks with ≤ `minObs` observations (2 in Kang et al.;
    * a stricter setting also catches slightly longer detection fragments).
    */
  private def appears(minObs: Int)(t: Loa.Track): Boolean = t.nObs <= minObs

  /** §8.4 "flicker": a track should not appear and disappear rapidly — flags
    * tracks whose distinct frames do not fill their frame span.
    */
  private def flickers(t: Loa.Track): Boolean = {
    val frames = t.bundles.map(_.frame)
    frames.last - frames.head + 1 > frames.distinct.size
  }

  /** §8.4 "multibox": three boxes should not overlap — flags tracks with a
    * bundle (one frame) of ≥ 3 model observations.
    */
  private def multibox(t: Loa.Track): Boolean = t.bundles.exists(_.obs.count(_.source == Sources.Model) >= 3)

  /** Ascending ids of the tracks any of `assertions` flags: one task per scene. */
  private def flagged(tracked: Dataset[TrackedObs], assertions: (Loa.Track => Boolean)*)(
      implicit spark: SparkSession): Seq[Long] = {
    import spark.implicits._
    tracked.groupByKey(_.scene).flatMapGroups { (_, rows) =>
      Loa.fromTracked(rows.toSeq).flatMap(_.tracks).filter(t => assertions.exists(_(t))).map(_.trackId)
    }.collect().toSeq.sorted
  }

  def appearFlagged(tracked: Dataset[TrackedObs], minObs: Int = 2)(implicit spark: SparkSession): Seq[Long] =
    flagged(tracked, appears(minObs))
  def flickerFlagged(tracked: Dataset[TrackedObs])(implicit spark: SparkSession): Seq[Long] =
    flagged(tracked, flickers)
  def multiboxFlagged(tracked: Dataset[TrackedObs])(implicit spark: SparkSession): Seq[Long] =
    flagged(tracked, multibox)

  /** Union of the three §8.4 assertions, in one pass. */
  def allFlagged(tracked: Dataset[TrackedObs], appearMinObs: Int = 2)(implicit spark: SparkSession): Seq[Long] =
    flagged(tracked, appears(appearMinObs), flickers, multibox)
}
