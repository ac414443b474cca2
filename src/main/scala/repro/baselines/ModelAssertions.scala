package repro.baselines

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.unsafe.hash.Murmur3_x86_32

import repro.core.{Fixy, Loa, Sources, TrackedObs}

/** The ad-hoc model assertions of Kang et al. (MLSys 2020) used as baselines
  * in §8.2/§8.4: black-box predicates over associated observations with
  * hand-specified severity orderings.
  */
object ModelAssertions {

  /** §8.2 "consistency" assertion: a time-consistent model track with no
    * human label is flagged as a potential missing label. It ranks Fixy's
    * candidates ([[Fixy.isMissingTrackCandidate]]); the ad-hoc part is the
    * severity ordering:
    *  - `rand`: uniformly random severity with the given seed;
    *  - `conf`: mean model confidence, highest first.
    */
  def consistency(ordering: String, minObs: Int, seed: Long): Fixy.Ranking =
    Fixy.Ranking(Fixy.isMissingTrackCandidate(minObs), ordering match {
      case "rand" => t => randSeverity(seed)(t.trackId)
      case "conf" => _.meanConf.get // candidates are model-only, so they have a mean confidence
      case other  => throw new IllegalArgumentException(s"unknown ordering: $other")
    })

  /** [[consistency]] alone: [[Fixy.rankMissingTracks]]' columns, with `score` named `severity`. */
  def consistency(
      tracked: Dataset[TrackedObs],
      ordering: String,
      minObs: Int = 3,
      seed: Long = 0,
  )(implicit spark: SparkSession): DataFrame =
    Fixy.rankTracks(tracked, ordering -> consistency(ordering, minObs, seed)).drop("method")
      .withColumnRenamed("score", "severity")

  /** The `rand` severity, bit for bit Spark's `abs(hash(trackId, seed))`. */
  private[baselines] def randSeverity(seed: Long)(trackId: Long): Double =
    math.abs(Murmur3_x86_32.hashLong(seed, Murmur3_x86_32.hashLong(trackId, 42))).toDouble

  /** §8.4 "appear": an observation should have observations in nearby
    * timestamps — flags tracks with ≤ `minObs` observations (2 in Kang et al.;
    * a stricter setting also catches slightly longer detection fragments).
    */
  private[baselines] def appears(minObs: Int)(t: Loa.Track): Boolean = t.nObs <= minObs

  /** §8.4 "flicker": a track should not appear and disappear rapidly — flags
    * tracks whose distinct frames do not fill their frame span.
    */
  private[baselines] def flickers(t: Loa.Track): Boolean = {
    val frames = t.bundles.map(_.frame)
    frames.last - frames.head + 1 > frames.distinct.size
  }

  /** §8.4 "multibox": three boxes should not overlap — flags tracks with a
    * bundle (one frame) of ≥ 3 model observations.
    */
  private[baselines] def multibox(t: Loa.Track): Boolean = t.bundles.exists(_.obs.count(_.source == Sources.Model) >= 3)

  /** The union of the three §8.4 assertions, as one predicate. */
  def flags(appearMinObs: Int): Loa.Track => Boolean = t => appears(appearMinObs)(t) || flickers(t) || multibox(t)

  /** Ascending ids of the tracks [[flags]] flags: one per-scene pass. */
  def allFlagged(tracked: Dataset[TrackedObs], appearMinObs: Int = 2)(implicit spark: SparkSession): Seq[Long] = {
    import spark.implicits._
    Fixy.perScene(tracked)((_, tracks) => tracks.filter(flags(appearMinObs)).map(_.trackId)).collect().toSeq.sorted
  }
}
