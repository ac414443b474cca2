package repro.baselines

import org.apache.spark.sql.SparkSession

import repro.SparkSpec
import repro.core._
import repro.core.TestObs.movingTrack

class UncertaintySpec extends SparkSpec {
  implicit private lazy val ss: SparkSession = spark

  /** The objects (`trueId`) of uncertainty sampling's ranked tracks of `os`, in rank order. */
  private def rankedObjects(os: Seq[Obs]): Seq[Long] = {
    val t = tracked(os).cache()
    val objectOf = t.collect().map(o => o.trackId -> o.trueId).toMap
    val ranked = Uncertainty.rankTracks(t).collect().sortBy(_.getAs[Int]("rank")).map(r => objectOf(r.getAs[Long]("trackId")))
    t.unpersist()
    ranked.toSeq
  }

  test("tracks nearest the threshold rank first") {
    val borderline = movingTrack(5, trueId = 1, conf = 0.52)
    val confident = movingTrack(5, trueId = 2, y0 = 50, conf = 0.95)
    assert(rankedObjects(borderline ++ confident).head == 1)
  }
  test("high-confidence errors are ranked last (the §8.4 blind spot)") {
    val novel = movingTrack(5, trueId = -1, conf = 0.95)
    val borderline = movingTrack(5, trueId = 2, y0 = 50, conf = 0.5)
    assert(rankedObjects(novel ++ borderline).last == -1)
  }
  test("human observations are ignored") {
    val human = movingTrack(5, trueId = 1, source = Sources.Human, conf = 1.0)
    assert(Uncertainty.rankTracks(tracked(human)).count() == 0)
  }
  test("global rank is dense from 1") {
    val os = (1 to 6).flatMap(i => movingTrack(4, trueId = i, y0 = i * 30, conf = 0.3 + 0.1 * i))
    val out = Uncertainty.rankTracks(tracked(os)).collect()
    assert(out.map(_.getAs[Int]("rank")).sorted.toSeq == (1 to out.length))
  }
}
