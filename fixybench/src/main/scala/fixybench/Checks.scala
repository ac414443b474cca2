package fixybench

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._

import repro.core.{FactorGraph, Loa, TrackedObs}

/** One entry of a top-k list as collected on the driver. `id` is a track id,
  * or a bundle id for §8.3. `nHuman` is -1 where the ranking has no such column.
  */
final case class Proposal(scene: Long, rank: Int, id: Long, score: Double, nObs: Long, nHuman: Long)

/** Output checks of one operation. Each returns the failures it found; an
  * operation with any failure counts as failed.
  */
object Checks {
  val TopK = 10
  val ReferenceTolerance = 1e-6

  /** The rank ≤ [[TopK]] rows of a ranking, ordered by (scene, rank). */
  def topK(ranked: DataFrame, idCol: String, scoreCol: String, hasHuman: Boolean): Vector[Proposal] =
    ranked.where(col("rank") <= TopK)
      .select(col("scene"), col("rank"), col(idCol), col(scoreCol).cast("double"), col("nObs").cast("long"),
        if (hasHuman) col("nHuman").cast("long") else lit(-1L))
      .collect()
      .map(r => Proposal(r.getLong(0), r.getInt(1), r.getLong(2), r.getDouble(3), r.getLong(4), r.getLong(5)))
      .toVector
      .sortBy(p => (p.scene, p.rank))

  /** Ranks run 1, 2, 3, … per scene (or over the whole list when `global`),
    * scores are finite and never increase with rank, and ties go to the
    * smaller id.
    */
  def ranking(list: String, top: Seq[Proposal], global: Boolean): Seq[String] = {
    val groups = if (global) Seq(top) else top.groupBy(_.scene).values.toSeq
    val notFinite = top.filterNot(p => java.lang.Double.isFinite(p.score))
      .map(p => s"$list: score of ${p.id} is not finite (${p.score})")
    val order = groups.flatMap { g =>
      val s = g.sortBy(_.rank)
      val ranks = s.map(_.rank)
      val contiguous =
        if (ranks == (1 to s.size)) Nil
        else Seq(s"$list: ranks ${ranks.mkString(",")} in scene ${s.head.scene} are not contiguous from 1")
      val ordered = s.sliding(2).collect {
        case Seq(a, b) if a.score < b.score || (a.score == b.score && a.id > b.id) =>
          s"$list: rank ${a.rank} (${a.id}, ${a.score}) is ordered before rank ${b.rank} (${b.id}, ${b.score})"
      }
      contiguous ++ ordered
    }
    notFinite ++ order
  }

  /** Missing-track proposals are model-only tracks that pass the count filter. */
  def missingTrackFilters(list: String, top: Seq[Proposal], minTrackObs: Int): Seq[String] =
    top.collect {
      case p if p.nHuman > 0 => s"$list: track ${p.id} has ${p.nHuman} human observations"
      case p if p.nObs < minTrackObs => s"$list: track ${p.id} has ${p.nObs} < $minTrackObs observations"
    }

  /** §8.4 proposals exclude the tracks the model assertions flagged. */
  def notFlagged(list: String, top: Seq[Proposal], flagged: Set[Long]): Seq[String] =
    top.filter(p => flagged.contains(p.id)).map(p => s"$list: track ${p.id} was flagged by a model assertion")

  /** Each Fixy score equals the factor-graph reference score of its track. */
  def matchesReference(list: String, top: Seq[Proposal], reference: Map[Long, Double]): Seq[String] =
    top.flatMap { p =>
      reference.get(p.id) match {
        case None => Some(s"$list: track ${p.id} has no reference score")
        case Some(r) if !(math.abs(r - p.score) <= ReferenceTolerance) =>
          Some(s"$list: track ${p.id} scored ${p.score}, reference ${r}")
        case _ => None
      }
    }

  /** The top-k lists of a later operation equal those of the run's first. */
  def sameAsFirst(first: Map[String, Vector[Proposal]], now: Map[String, Vector[Proposal]]): Seq[String] =
    (first.keySet ++ now.keySet).toSeq.sorted.flatMap { k =>
      val a = first.getOrElse(k, Vector.empty)
      val b = now.getOrElse(k, Vector.empty)
      val same = a.size == b.size && a.zip(b).forall { case (x, y) =>
        x.copy(score = 0) == y.copy(score = 0) && math.abs(x.score - y.score) <= 1e-9
      }
      if (same) None else Some(s"$k: top-k list differs from the first operation's")
    }

  /** Eq. 2 reference scores: `FactorGraph.compileTrack(...).score` over
    * `Loa.fromTracked` of each listed track's observations.
    */
  def referenceScores(tracked: Dataset[TrackedObs], trackIds: Seq[Long], features: Seq[Loa.AppliedFeature]): Map[Long, Double] =
    if (trackIds.isEmpty) Map.empty
    else {
      val rows = tracked.where(col("trackId").isin(trackIds.distinct: _*)).collect().toSeq
      Loa.fromTracked(rows).flatMap(_.tracks).map(t => t.trackId -> FactorGraph.compileTrack(t, features).score).toMap
    }
}
