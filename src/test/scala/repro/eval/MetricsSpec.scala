package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.core.TestObs.movingTrack
import repro.perception.{PerceptionData, TruthRow}

class MetricsSpec extends SparkSpec {
  implicit private lazy val ss: SparkSession = spark
  import org.apache.spark.sql.functions._

  private def toDs(os: Seq[Obs]) = {
    import ss.implicits._
    ss.createDataset(os)
  }
  private def truthDs(rows: Seq[TruthRow]) = {
    import ss.implicits._
    ss.createDataset(rows)
  }
  private def truthRow(scene: Long, id: Long, missing: Boolean): TruthRow =
    TruthRow(scene, id, "object", Classes.Car, missing, "none", Seq.empty, 10, 20.0)

  /** Majority objects of one bundle: overlapping observations of `trueIds` in one frame. */
  private def bundleMajority(trueIds: Long*): Seq[Long] = {
    val tracked = Association.assignTracks(toDs(trueIds.map(id => TestObs.obs(trueId = id))))
    Metrics.majority(tracked, "bundleId").collect().map(_.getAs[Long]("majTrueId")).toSeq
  }

  test("majorityTrueId picks the dominant object of a track") {
    val os = movingTrack(7, trueId = 1) ++ Seq(TestObs.obs(frame = 7, trueId = 2, x = 17.0))
    val tracked = Association.assignTracks(toDs(os))
    val maj = Metrics.majorityTrueId(tracked).collect()
    assert(maj.length == 1)
    assert(maj.head.getAs[Long]("majTrueId") == 1L)
    // Keyed by bundle: 1 is the smallest id but not the majority.
    assert(bundleMajority(2, 1, 2) == Seq(2L))
  }
  test("majorityTrueId breaks ties on the smaller id") {
    val os = movingTrack(3, trueId = 5) ++
      movingTrack(3, trueId = 2).map(o => o.copy(frame = o.frame + 3, x = o.x + 3))
    val tracked = Association.assignTracks(toDs(os))
    val maj = Metrics.majorityTrueId(tracked).collect()
    assert(maj.length == 1)
    assert(maj.head.getAs[Long]("majTrueId") == 2L)
    assert(bundleMajority(5, 2) == Seq(2L))
  }

  test("the answer key is the real objects whose human track is missing") {
    val truth = truthDs(Seq(
      truthRow(0, 1, missing = true), truthRow(0, 2, missing = false), truthRow(3, 4, missing = true),
      truthRow(0, -1001, missing = true).copy(kind = "ghost"), truthRow(1, -50001, missing = true).copy(kind = "novel")))
    assert(Metrics.missingObjects(truth).map(_.trueId).sorted == Seq(1L, 4L))
    assert(Metrics.scenesWithMissing(truth) == Seq(0L, 3L))
  }

  test("labelMissingTrackProposals marks only missing objects as errors") {
    val missed = movingTrack(5, trueId = 1)
    val ghost = movingTrack(5, trueId = -3, y0 = 50)
    val tracked = Association.assignTracks(toDs(missed ++ ghost)).cache()
    val truth = truthDs(Seq(truthRow(0, 1, missing = true)))
    val ranked = Fixy.rankMissingTracks(tracked, MetricsSpec.tinyModel, FixyConfig())
    val labeled = Metrics.labelMissingTrackProposals(ranked, tracked, truth).collect()
    assert(labeled.length == 2)
    val byTrue = labeled.map(r => r.getAs[Long]("majTrueId") -> r.getAs[Boolean]("isError")).toMap
    assert(byTrue(1L))
    assert(!byTrue(-3L))
    tracked.unpersist()
  }

  test("precisionAtK: perfect proposals give 1.0") {
    val labeled = MetricsSpec.labeledFrame(ss, Seq((0L, 1, true), (0L, 2, true), (0L, 3, true)))
    assert(Metrics.precisionAtK(labeled, Seq(0L), 3) === 1.0)
  }
  test("precisionAtK: all-wrong proposals give 0.0") {
    val labeled = MetricsSpec.labeledFrame(ss, Seq((0L, 1, false), (0L, 2, false)))
    assert(Metrics.precisionAtK(labeled, Seq(0L), 2) === 0.0)
  }
  test("precisionAtK counts only the top k") {
    val labeled = MetricsSpec.labeledFrame(ss, Seq((0L, 1, false), (0L, 2, true), (0L, 3, true)))
    assert(Metrics.precisionAtK(labeled, Seq(0L), 1) === 0.0)
    assert(math.abs(Metrics.precisionAtK(labeled, Seq(0L), 2) - 0.5) < 1e-12)
  }
  test("precisionAtK uses the flagged count when fewer than k proposals exist") {
    // paper: "in some cases fewer than 10 potential errors were flagged"
    val labeled = MetricsSpec.labeledFrame(ss, Seq((0L, 1, true), (0L, 2, true)))
    assert(Metrics.precisionAtK(labeled, Seq(0L), 10) === 1.0)
  }
  test("precisionAtK macro-averages across scenes") {
    val labeled = MetricsSpec.labeledFrame(ss,
      Seq((0L, 1, true), (0L, 2, true), (1L, 1, false), (1L, 2, false)))
    assert(math.abs(Metrics.precisionAtK(labeled, Seq(0L, 1L), 2) - 0.5) < 1e-12)
  }
  test("precisionAtK scores scenes without proposals as 0") {
    val labeled = MetricsSpec.labeledFrame(ss, Seq((0L, 1, true)))
    assert(math.abs(Metrics.precisionAtK(labeled, Seq(0L, 7L), 1) - 0.5) < 1e-12)
  }
  test("precisionAtK requires a scene list") {
    val labeled = MetricsSpec.labeledFrame(ss, Seq((0L, 1, true)))
    assertThrows[IllegalArgumentException](Metrics.precisionAtK(labeled, Seq.empty, 1))
  }
  test("sceneCoverageAtK counts scenes with at least one hit") {
    val labeled = MetricsSpec.labeledFrame(ss,
      Seq((0L, 1, true), (0L, 2, false), (1L, 1, false), (2L, 1, true)))
    assert(math.abs(Metrics.sceneCoverageAtK(labeled, Seq(0L, 1L, 2L), 2) - 2.0 / 3) < 1e-12)
  }
  test("oracle: per-scene hit counts match a DuckDB window query") {
    val labeled = MetricsSpec.labeledFrame(ss,
      Seq((0L, 1, true), (0L, 2, false), (0L, 3, true), (1L, 1, true))).cache()
    val agg = labeled.where(col("rank") <= 2)
      .groupBy("scene")
      .agg(sum(when(col("isError"), 1).otherwise(0)).as("hits"))
    Oracle.assertEquivalent(
      agg,
      "SELECT scene, SUM(CASE WHEN isError = 'true' THEN 1 ELSE 0 END) AS hits " +
        "FROM labeled WHERE CAST(rank AS INT) <= 2 GROUP BY scene",
      "labeled" -> labeled)
  }

  test("globalPrecisionAtK divides by n when fewer than k are ranked, and gives 0 for none") {
    val labeled = MetricsSpec.labeledFrame(ss, Seq((0L, 1, true), (1L, 2, false), (0L, 3, true)))
    assert(math.abs(Metrics.globalPrecisionAtK(labeled, 10) - 2.0 / 3) < 1e-12)
    assert(math.abs(Metrics.globalPrecisionAtK(labeled, 2) - 0.5) < 1e-12)
    assert(Metrics.globalPrecisionAtK(labeled.where(lit(false)), 10) === 0.0)
  }

  test("recallPerClassTopK cuts each class's top k by the ranking's rank on an exact score tie") {
    val os = movingTrack(5, trueId = 1) ++ movingTrack(5, trueId = 2, y0 = 50)
    val tracked = Association.assignTracks(toDs(os)).cache()
    val ids = tracked.toDF().select("trackId", "trueId").distinct().collect()
      .map(r => r.getLong(0) -> r.getLong(1)).sorted
    assert(ids.length == 2)
    val ((smaller, _), (larger, largerObject)) = (ids(0), ids(1))
    // Equal scores; the ranking put the larger track id first, so only its
    // object is within the top 1.
    val ranked = {
      import ss.implicits._
      Seq((0L, larger, 0.0, Classes.Car, 1), (0L, smaller, 0.0, Classes.Car, 2)).toDF("scene", "trackId", "score", "cls", "rank")
    }
    val truth = truthDs(Seq(truthRow(0, largerObject, missing = true)))
    assert(Metrics.recallPerClassTopK(ranked, tracked, truth, k = 1) == ((1L, 1L)))
    tracked.unpersist()
  }

  test("recallPerClassTopK finds injected missing tracks") {
    val spec = PerceptionData.internalAudit
    val cfg = FixyConfig()
    val learned = MetricsSpec.tinyModel
    val tracked = Association.assignTracks(PerceptionData.observations(spec), cfg.assoc).cache()
    val truth = PerceptionData.truth(spec)
    val ranked = Fixy.rankMissingTracks(tracked, learned, cfg)
    val (found, total) = Metrics.recallPerClassTopK(ranked, tracked, truth, k = 10)
    assert(total == 24)
    assert(found > 0)
    tracked.unpersist()
  }
}

object MetricsSpec {
  /** Ranked-proposal frame builder: (scene, rank, isError) triples. */
  def labeledFrame(spark: SparkSession, rows: Seq[(Long, Int, Boolean)]): DataFrame = {
    import spark.implicits._
    rows.toDF("scene", "rank", "isError")
  }

  /** A tiny but realistic learned model (fit once, shared by tests). */
  lazy val tinyModel: LearnedModel = {
    val rng = new java.util.Random(5)
    def vols(mean: Double) = Seq.fill(200)(mean * math.exp(rng.nextGaussian() * 0.15))
    LearnedModel(
      volumeByClass = Map(
        Classes.Car -> Kde.fit(vols(14.5)),
        Classes.Truck -> Kde.fit(vols(70.0)),
        Classes.Pedestrian -> Kde.fit(vols(1.1)),
        Classes.Motorcycle -> Kde.fit(vols(3.0))),
      velocityByClass = Map(
        Classes.Car -> Kde.fit(Seq.fill(200)(math.max(0, rng.nextGaussian() * 3 + 8))),
        Classes.Truck -> Kde.fit(Seq.fill(200)(math.max(0, rng.nextGaussian() * 2.5 + 6))),
        Classes.Pedestrian -> Kde.fit(Seq.fill(200)(math.max(0, rng.nextGaussian() * 0.5 + 1.4))),
        Classes.Motorcycle -> Kde.fit(Seq.fill(200)(math.max(0, rng.nextGaussian() * 1.5 + 5)))),
      volumePooled = Kde.fit(vols(14.5) ++ vols(70.0) ++ vols(1.1)),
      velocityPooled = Kde.fit(Seq.fill(200)(math.max(0, rng.nextGaussian() * 3 + 5))),
      trackLength = Kde.fit(Seq.fill(100)(75.0 + rng.nextGaussian() * 30).map(math.max(3.0, _))),
      distanceScale = 60.0)
  }
}
