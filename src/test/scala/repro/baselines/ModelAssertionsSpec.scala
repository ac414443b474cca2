package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.SparkSpec
import repro.core._
import repro.core.TestObs.movingTrack
import repro.perception.PerceptionData

class ModelAssertionsSpec extends SparkSpec {
  implicit private lazy val ss: SparkSession = spark

  /** The ids of the tracks in `t` that `assertion` flags. */
  private def flagged(t: Dataset[TrackedObs], assertion: Loa.Track => Boolean): Seq[Long] =
    Loa.fromTracked(t.collect().toSeq).flatMap(_.tracks).filter(assertion).map(_.trackId)

  // --- consistency (§8.2 baseline) ------------------------------------------

  test("consistency flags model-only tracks of sufficient length") {
    val missed = movingTrack(6, trueId = 1)
    val labeled = movingTrack(6, trueId = 2, y0 = 50, source = Sources.Human)
    val out = ModelAssertions.consistency(tracked(missed ++ labeled), "rand").collect()
    assert(out.length == 1)
    assert(out.head.getAs[Long]("nHuman") == 0)
  }
  test("consistency drops short tracks") {
    val short = movingTrack(2, trueId = 1)
    assert(ModelAssertions.consistency(tracked(short), "rand").count() == 0)
  }
  test("rand ordering is deterministic for a fixed seed") {
    val os = (1 to 5).flatMap(i => movingTrack(5, trueId = i, y0 = i * 40))
    val t = tracked(os).cache()
    val a = ModelAssertions.consistency(t, "rand", seed = 3).select("trackId", "rank").collect().toSet
    val b = ModelAssertions.consistency(t, "rand", seed = 3).select("trackId", "rank").collect().toSet
    assert(a == b)
    t.unpersist()
  }
  test("rand ordering changes with the seed") {
    val os = (1 to 8).flatMap(i => movingTrack(5, trueId = i, y0 = i * 40))
    val t = tracked(os).cache()
    val a = ModelAssertions.consistency(t, "rand", seed = 1).select("trackId", "rank").collect().toSet
    val b = ModelAssertions.consistency(t, "rand", seed = 2).select("trackId", "rank").collect().toSet
    assert(a != b)
    t.unpersist()
  }
  test("conf ordering ranks by mean confidence descending") {
    val hi = movingTrack(5, trueId = 1, conf = 0.95)
    val lo = movingTrack(5, trueId = 2, y0 = 50, conf = 0.4)
    val t = tracked(hi ++ lo).cache()
    val objectOf = t.collect().map(o => o.trackId -> o.trueId).toMap
    val out = ModelAssertions.consistency(t, "conf").collect().sortBy(_.getAs[Int]("rank"))
    assert(out.map(r => objectOf(r.getAs[Long]("trackId"))).toSeq == Seq(1L, 2L))
    t.unpersist()
  }
  test("rand severity equals Spark's abs(hash(trackId, seed)) on every lyftEval and internalAudit track") {
    import org.apache.spark.sql.functions.{abs, col, hash, lit}
    for (spec <- Seq(PerceptionData.lyftEval, PerceptionData.internalAudit)) {
      val ids = Association.assignTracks(PerceptionData.observations(spec)).select("trackId").distinct().cache()
      for (seed <- 1L to 5L) {
        val sparkHash = ids.select(col("trackId"), abs(hash(col("trackId"), lit(seed))).cast("double")).collect()
        assert(sparkHash.nonEmpty)
        sparkHash.foreach { r =>
          assert(ModelAssertions.randSeverity(seed)(r.getLong(0)) == r.getDouble(1),
            s"${spec.name} seed $seed track ${r.getLong(0)}")
        }
      }
      ids.unpersist()
    }
  }
  test("unknown ordering is rejected") {
    assertThrows[IllegalArgumentException] {
      ModelAssertions.consistency(tracked(movingTrack(5)), "bogus")
    }
  }

  // --- appear / flicker / multibox (§8.4) -----------------------------------

  test("appear flags tracks with <= 2 observations") {
    val short = movingTrack(2, trueId = 1)
    val long = movingTrack(6, trueId = 2, y0 = 50)
    val t = tracked(short ++ long)
    assert(flagged(t, ModelAssertions.appears(2)).size == 1)
  }
  test("flicker flags tracks with frame gaps") {
    val gappy = movingTrack(8, trueId = 1).filterNot(_.frame == 4)
    val smooth = movingTrack(8, trueId = 2, y0 = 50)
    val t = tracked(gappy ++ smooth).cache()
    val flickering = flagged(t, ModelAssertions.flickers)
    assert(flickering.size == 1)
    // the flagged track is the gappy one
    val gappyTrack = t.collect().filter(_.trueId == 1).map(_.trackId).distinct
    assert(flickering.toSet == gappyTrack.toSet)
    t.unpersist()
  }
  test("flicker does not flag gap-free tracks") {
    assert(flagged(tracked(movingTrack(10)), ModelAssertions.flickers).isEmpty)
  }
  test("multibox flags bundles with 3+ overlapping model boxes") {
    val triple = (0 until 4).flatMap { f =>
      (0 until 3).map(b => TestObs.obs(frame = f, trueId = -1, x = 10 + 0.2 * b, y = 0.2 * b, conf = 0.6))
    }
    val t = tracked(triple)
    assert(flagged(t, ModelAssertions.multibox).nonEmpty)
  }
  test("multibox ignores pairs") {
    val pair = (0 until 4).flatMap { f =>
      (0 until 2).map(b => TestObs.obs(frame = f, trueId = -1, x = 10 + 0.2 * b, conf = 0.6))
    }
    assert(flagged(tracked(pair), ModelAssertions.multibox).isEmpty)
  }
  test("allFlagged unions the three assertions without duplicates") {
    val short = movingTrack(2, trueId = 1)
    val gappy = movingTrack(8, trueId = 2, y0 = 50).filterNot(_.frame == 4)
    val t = tracked(short ++ gappy)
    val all = ModelAssertions.allFlagged(t)
    assert(all.size == all.distinct.size)
    assert(all.size == 2)
  }
  test("the 8.4 assertion sets on the full model-error preset are pinned") {
    val modelObs = PerceptionData.observations(PerceptionData.modelErrorSim).filter(_.source == Sources.Model)
    val t = Association.assignTracks(modelObs).cache()
    assert(flagged(t, ModelAssertions.appears(4)).size == 326)
    assert(flagged(t, ModelAssertions.flickers).size == 332)
    assert(flagged(t, ModelAssertions.multibox).size == 18)
    val all = ModelAssertions.allFlagged(t, appearMinObs = 4)
    assert(all.size == 582 && all.distinct.size == 582)
    assert(flagged(t, ModelAssertions.flags(appearMinObs = 4)).sorted == all)
    t.unpersist()
  }
  test("ma ghosts in the 8.4 preset are flagged, novel errors are not") {
    val spec = PerceptionData.modelErrorSim.copy(nScenes = 2)
    val modelObs = PerceptionData.observations(spec).filter(_.source == Sources.Model)
    val t = Association.assignTracks(modelObs).cache()
    val flaggedIds = ModelAssertions.allFlagged(t).toSet
    val rows = t.collect()
    val novelTracks = rows.filter(o => o.trueId < 0 && -o.trueId % PerceptionData.IdStride >= 50000)
      .groupBy(_.trackId)
      // only tracks that are purely novel-error observations
      .collect { case (tid, os) if rows.filter(_.trackId == tid).forall(o => os.map(_.trueId).contains(o.trueId)) => tid }
    assert(novelTracks.nonEmpty)
    assert(novelTracks.forall(tid => !flaggedIds.contains(tid)), "novel errors must evade the ad-hoc MAs")
    t.unpersist()
  }
}
