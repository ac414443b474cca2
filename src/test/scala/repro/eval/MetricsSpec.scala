package repro.eval

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Dataset, Row, SparkSession}

import repro.{Oracle, SparkSpec}
import repro.baselines.ModelAssertions
import repro.core._
import repro.core.TestObs.movingTrack
import repro.perception.{PerceptionData, TruthRow}

class MetricsSpec extends SparkSpec {
  implicit private lazy val ss: SparkSession = spark
  import org.apache.spark.sql.functions._

  private def truthRow(scene: Long, id: Long, missing: Boolean): TruthRow =
    TruthRow(scene, id, "object", Classes.Car, missing, "none", Seq.empty, 10, 20.0)

  /** Each track's object, as labelling assigns it. */
  private def trackMajority(tracked: Dataset[TrackedObs]): Seq[Long] =
    Metrics.labelModelErrorProposals(tracked.select("trackId").distinct(), tracked)
      .select("majTrueId").collect().map(_.getLong(0)).toSeq
  /** Majority objects of one bundle: overlapping observations of `trueIds` in one frame. */
  private def bundleMajority(trueIds: Long*): Seq[Long] = {
    val tracked = Association.assignTracks(toDs(trueIds.map(id => TestObs.obs(trueId = id))))
    Metrics.majority(tracked.collect().map(o => o.bundleId -> o.trueId)).values.toSeq
  }

  test("majority picks the dominant object of a track") {
    val os = movingTrack(7, trueId = 1) ++ Seq(TestObs.obs(frame = 7, trueId = 2, x = 17.0))
    assert(trackMajority(Association.assignTracks(toDs(os))) == Seq(1L))
    // Keyed by bundle: 1 is the smallest id but not the majority.
    assert(bundleMajority(2, 1, 2) == Seq(2L))
  }
  test("majority breaks ties on the smaller id") {
    val os = movingTrack(3, trueId = 5) ++
      movingTrack(3, trueId = 2).map(o => o.copy(frame = o.frame + 3, x = o.x + 3))
    assert(trackMajority(Association.assignTracks(toDs(os))) == Seq(2L))
    assert(bundleMajority(5, 2) == Seq(2L))
  }
  test("majority keeps every key and ties to the smaller id, whatever the order of the pairs") {
    // Key 1: objects 9 and 4 tie at two pairs each; key 2: 7 leads 3; key 3 has one pair.
    val pairs = Seq(1L -> 9L, 1L -> 4L, 2L -> 7L, 1L -> 9L, 2L -> 3L, 1L -> 4L, 2L -> 7L, 3L -> 5L)
    val expected = Map(1L -> 4L, 2L -> 7L, 3L -> 5L)
    for (order <- Seq(pairs, pairs.reverse, new scala.util.Random(3).shuffle(pairs)))
      assert(Metrics.majority(order) == expected, order)
  }

  test("the answer key is the real objects whose human track is missing") {
    val truth = toDs(Seq(
      truthRow(0, 1, missing = true), truthRow(0, 2, missing = false), truthRow(3, 4, missing = true),
      truthRow(0, -1001, missing = true).copy(kind = "ghost"), truthRow(1, -50001, missing = true).copy(kind = "novel")))
    assert(Metrics.missingObjects(truth).map(_.trueId).sorted == Seq(1L, 4L))
    assert(Metrics.scenesWithMissing(truth) == Seq(0L, 3L))
  }

  test("labelMissingTrackProposals marks only missing objects as errors") {
    val missed = movingTrack(5, trueId = 1)
    val ghost = movingTrack(5, trueId = -3, y0 = 50)
    val tracked = Association.assignTracks(toDs(missed ++ ghost)).cache()
    val truth = toDs(Seq(truthRow(0, 1, missing = true)))
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
  /** `internalAudit`'s associated observations, ground truth and Fixy ranking (with [[MetricsSpec.tinyModel]]). */
  private lazy val audit = {
    val spec = PerceptionData.internalAudit
    val tracked = Association.assignTracks(PerceptionData.observations(spec)).cache()
    (tracked, PerceptionData.truth(spec).cache(), Fixy.rankMissingTracks(tracked, MetricsSpec.tinyModel, FixyConfig()).cache())
  }

  test("oracle: labels and per-scene P@10 on internalAudit match DuckDB") {
    val (tracked, truth, ranked) = audit
    val labeled = Metrics.labelMissingTrackProposals(ranked, tracked, truth)
    val scenes = Metrics.scenesWithMissing(truth)
    assert(scenes.nonEmpty)
    val tables = Seq(
      "tracked" -> tracked.toDF().select("trackId", "trueId"),
      "ranked" -> ranked.select("scene", "trackId", "rank"),
      "truth" -> truth.toDF().select("scene", "trueId", "kind", "missingTrack"))
    // Each track's object: most observations, ties to the smaller id; and the answer key.
    val common =
      """WITH obs AS (SELECT CAST(trackId AS BIGINT) AS trackId, CAST(trueId AS BIGINT) AS trueId FROM tracked),
        |maj AS (SELECT trackId, trueId AS majTrueId FROM (
        |  SELECT trackId, trueId, ROW_NUMBER() OVER (PARTITION BY trackId ORDER BY COUNT(*) DESC, trueId) AS rn
        |  FROM obs GROUP BY trackId, trueId) WHERE rn = 1),
        |answer AS (SELECT CAST(scene AS BIGINT) AS scene, CAST(trueId AS BIGINT) AS trueId FROM truth
        |  WHERE kind = 'object' AND missingTrack = 'true'),
        |labeled AS (SELECT CAST(r.scene AS BIGINT) AS scene, m.trackId, CAST(r.rank AS INT) AS rank, m.majTrueId,
        |  m.majTrueId IN (SELECT trueId FROM answer) AS isError
        |  FROM ranked r JOIN maj m ON m.trackId = CAST(r.trackId AS BIGINT))
        |""".stripMargin
    Oracle.assertEquivalent(labeled.select("trackId", "majTrueId", "isError"),
      common + "SELECT trackId, majTrueId, isError FROM labeled", tables: _*)
    val p10 = {
      import ss.implicits._
      scenes.map(s => (s, Metrics.precisionAtK(labeled, Seq(s), 10))).toDF("scene", "p10")
    }
    Oracle.assertEquivalent(p10,
      common +
        """SELECT s.scene, COALESCE(CAST(SUM(CASE WHEN l.isError THEN 1 ELSE 0 END) AS DOUBLE) / LEAST(10, COUNT(l.rank)), 0.0)
          |  AS p10
          |FROM (SELECT DISTINCT scene FROM answer) s LEFT JOIN labeled l ON l.scene = s.scene AND l.rank <= 10
          |GROUP BY s.scene""".stripMargin,
      tables: _*)
  }

  test("labels, P@k, coverage and recall are unchanged by row order and shuffle partition count") {
    val (tracked, truth, _) = audit
    def withPartitions[A](n: Int)(body: => A): A = {
      val before = ss.conf.get("spark.sql.shuffle.partitions")
      ss.conf.set("spark.sql.shuffle.partitions", n.toString)
      try body finally ss.conf.set("spark.sql.shuffle.partitions", before)
    }
    val scenes = Metrics.scenesWithMissing(truth)
    def rank(t: Dataset[TrackedObs]) = Fixy.rankMissingTracks(t, MetricsSpec.tinyModel, FixyConfig())
    def judge(ranked: DataFrame, tracked: Dataset[TrackedObs]) = {
      val labeled = Metrics.labelMissingTrackProposals(ranked, tracked, truth)
      (labeled.select("scene", "trackId", "rank", "majTrueId", "isError").collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getInt(2), r.getLong(3), r.getBoolean(4))).toSeq.sorted,
        Seq(10, 5, 1).map(Metrics.precisionAtK(labeled, scenes, _)),
        Metrics.sceneCoverageAtK(labeled, scenes, 10),
        Metrics.recallPerClassTopK(ranked, tracked, truth, k = 10))
    }
    val base = withPartitions(64)(judge(rank(tracked), tracked))
    assert(base._1.nonEmpty)
    assert(base._4._1 > 0)
    assert(judge(rank(tracked), tracked.orderBy(rand(7))) == base, "shuffled tracked rows")
    assert(judge(rank(tracked).orderBy(rand(7)), tracked) == base, "shuffled ranking rows")
    assert(withPartitions(1)(judge(rank(tracked), tracked)) == base, "1 vs 64 shuffle partitions")
    // A per-scene pass shuffles into as many partitions as its input has.
    for (n <- Seq(1, 64)) {
      val t = tracked.repartition(n)
      assert(judge(rank(t), t) == base, s"$n input partitions")
    }
  }

  test("a real majority tie decides a published number: MA(rand, seed 4) on lyftEval") {
    val spec = PerceptionData.lyftEval
    val tracked = Association.assignTracks(PerceptionData.observations(spec)).cache()
    val truth = PerceptionData.truth(spec).cache()
    val labeled = Metrics.labelMissingTrackProposals(ModelAssertions.consistency(tracked, "rand", seed = 4), tracked, truth)
    val rows = labeled.collect().toSeq
    // Each track's leading objects (most observations), counted here with Spark.
    val counts = tracked.toDF().groupBy("trackId", "trueId").count().collect()
      .groupMap(_.getLong(0))(r => r.getLong(1) -> r.getLong(2))
    val leaders = rows.map { r =>
      val cs = counts(r.getAs[Long]("trackId"))
      r -> cs.collect { case (id, n) if n == cs.map(_._2).max => id }.toSeq
    }
    val tied = leaders.filter(_._2.size > 1)
    val answerKey = Metrics.missingObjects(truth).map(_.trueId).toSet
    assert(rows.size == 2317)
    assert(tied.size == 11)
    // The tie break decides the verdict when the tied objects are judged differently.
    assert(tied.count(_._2.map(answerKey).distinct.size > 1) == 3)
    tied.foreach { case (r, ids) => assert(r.getAs[Long]("majTrueId") == ids.min, r) }
    val scenes = Metrics.scenesWithMissing(truth)
    assert(math.abs(Metrics.precisionAtK(labeled, scenes, 10) - 0.3625) < 1e-12)
    // Ties to the larger id would move it.
    val toLarger = leaders.map { case (r, ids) =>
      if (ids.size == 1) r else Row.fromSeq(r.toSeq.dropRight(2) :+ ids.max :+ answerKey(ids.max))
    }
    val larger = ss.createDataFrame(toLarger.asJava, labeled.schema)
    assert(math.abs(Metrics.precisionAtK(larger, scenes, 10) - 0.365625) < 1e-12)
    Seq(tracked, truth).foreach(_.unpersist())
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
    val truth = toDs(Seq(truthRow(0, largerObject, missing = true)))
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
    // Fitted in this order, so each KDE sees the same random draws.
    val volumeByClass = Map(
      Classes.Car -> Kde.fit(vols(14.5)),
      Classes.Truck -> Kde.fit(vols(70.0)),
      Classes.Pedestrian -> Kde.fit(vols(1.1)),
      Classes.Motorcycle -> Kde.fit(vols(3.0)))
    val velocityByClass = Map(
      Classes.Car -> Kde.fit(Seq.fill(200)(math.max(0, rng.nextGaussian() * 3 + 8))),
      Classes.Truck -> Kde.fit(Seq.fill(200)(math.max(0, rng.nextGaussian() * 2.5 + 6))),
      Classes.Pedestrian -> Kde.fit(Seq.fill(200)(math.max(0, rng.nextGaussian() * 0.5 + 1.4))),
      Classes.Motorcycle -> Kde.fit(Seq.fill(200)(math.max(0, rng.nextGaussian() * 1.5 + 5))))
    val volume = ClassKde(volumeByClass, Kde.fit(vols(14.5) ++ vols(70.0) ++ vols(1.1)))
    val velocity = ClassKde(velocityByClass, Kde.fit(Seq.fill(200)(math.max(0, rng.nextGaussian() * 3 + 5))))
    val count = ClassKde(Map.empty, Kde.fit(Seq.fill(100)(75.0 + rng.nextGaussian() * 30).map(math.max(3.0, _))))
    LearnedModel(Map("volume" -> volume, "velocity" -> velocity, "count" -> count))
  }
}
