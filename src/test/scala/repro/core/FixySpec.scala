package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

import repro.SparkSpec
import repro.baselines.{ModelAssertions, Uncertainty}
import repro.eval.Experiments
import repro.perception.{DatasetSpec, PerceptionData}
import TestObs.movingTrack

class FixySpec extends SparkSpec {
  implicit private lazy val ss: SparkSession = spark
  import org.apache.spark.sql.functions._

  private val cfg = FixyConfig()
  private lazy val trainSpec = PerceptionData.internalTrain.copy(nScenes = 4)
  private lazy val learned: LearnedModel = Fixy.learn(PerceptionData.observations(trainSpec), cfg)

  // --- offline learning (§5.2) ---------------------------------------------

  /** `model`'s learned likelihood of a value of `feature` for class `cls`. */
  private def lik(model: LearnedModel, feature: String)(cls: String, v: Double): Double =
    model.byFeature(feature).likelihood(Some(cls), v)
  private def volumeLik(cls: String, v: Double): Double = lik(learned, "volume")(cls, v)
  private def velocityLik(cls: String, v: Double): Double = lik(learned, "velocity")(cls, v)

  test("learned volume KDE peaks near canonical class volumes") {
    val car = PerceptionData.params(Classes.Car)
    val carVol = car.l * car.w * car.h
    assert(volumeLik(Classes.Car, carVol) > 0.3)
    assert(volumeLik(Classes.Car, carVol * 20) < 0.01)
  }
  test("learned volume KDE is class-conditional") {
    val car = PerceptionData.params(Classes.Car)
    val carVol = car.l * car.w * car.h
    assert(volumeLik(Classes.Pedestrian, carVol) < 0.05)
    assert(volumeLik(Classes.Pedestrian, 1.1) > 0.2)
  }
  test("learned velocity KDE accepts class-typical speeds, rejects extremes") {
    assert(velocityLik(Classes.Pedestrian, 1.4) > 0.05)
    assert(velocityLik(Classes.Pedestrian, 15.0) < 0.01)
    assert(velocityLik(Classes.Car, 40.0) < 0.01)
  }
  test("unknown class falls back to the pooled distribution") {
    assert(volumeLik("unicycle", 14.5) == learned.byFeature("volume").pooled.likelihood(14.5))
  }
  test("distance likelihood decays exponentially") {
    val distance = Fixy.driverFeatures(learned, cfg).find(_.feature.name == "distance").get
    def distanceLik(d: Double) = distance.likelihood(Some(Classes.Car), d)
    assert(distanceLik(0) === 1.0)
    assert(math.abs(distanceLik(60) - math.exp(-1)) < 1e-12)
    assert(distanceLik(10) > distanceLik(50))
  }
  test("the scorer's frame rate is the generator's") {
    // Velocity is a displacement times `fps`; the generator moves objects at `Fps`.
    assert(cfg.fps == PerceptionData.Fps)
  }
  test("all four classes get class-conditional distributions") {
    assert(Classes.All.forall(learned.byFeature("volume").byClass.contains))
    assert(Classes.All.forall(learned.byFeature("velocity").byClass.contains))
  }
  test("track length KDE sees plausible lengths") {
    assert(learned.byFeature("count").likelihood(None, 140.0) > 0.0) // full-vis human+model track
  }
  test("learn fits exactly the learned features the model-error feature set reads") {
    val read = Fixy.driverFeatures(learned, cfg, useDistance = false, useTrackLength = true).map(_.feature.name)
    assert(learned.byFeature.keySet == read.toSet)
    assert(learned.byFeature("count").byClass.isEmpty) // a track instance has no class
  }
  test("learn is deterministic") {
    val again = Fixy.learn(PerceptionData.observations(trainSpec), cfg)
    assert(lik(again, "volume")(Classes.Car, 14.5) == volumeLik(Classes.Car, 14.5))
    assert(lik(again, "velocity")(Classes.Car, 8.0) == velocityLik(Classes.Car, 8.0))
  }
  test("learn fits the same model, bit for bit, as a fit of one row per feature instance") {
    def bits(k: Kde) = (Seq(k.bandwidth, k.gridLo, k.gridStep, k.maxDensity) ++ k.gridDensity).map(java.lang.Double.doubleToRawLongBits)
    def asBits(m: LearnedModel) = m.byFeature.view.mapValues(c => (c.byClass.view.mapValues(bits).toMap, bits(c.pooled))).toMap
    for (spec <- Seq(PerceptionData.internalTrain, PerceptionData.lyftTrain)) {
      val obs = PerceptionData.observations(spec).cache()
      val model = asBits(Fixy.learn(obs, cfg))
      assert(model.keySet == Set("volume", "velocity", "count") && model("volume")._1.keySet == Classes.All.toSet, spec.name)
      assert(model == asBits(FixySpec.learnRowWise(obs, cfg)), spec.name)
      obs.unpersist()
    }
  }
  test("learn fails cleanly with no human labels") {
    assertThrows[IllegalArgumentException] {
      Fixy.learn(toDs(movingTrack(5, source = Sources.Model)), cfg)
    }
  }

  // --- differential tests: the per-scene scorer vs two references (§4.3/§6) --
  // The driver-side factor graph over collected rows, and the independent
  // DataFrame formulation in DataFrameReference.

  private def differential(useDistance: Boolean, useTrackLength: Boolean, invert: Boolean): Unit = {
    val spec = PerceptionData.internalTrain.copy(nScenes = 2, objectsPerScene = 8, ghostsPerScene = 4)
    val tracked = Association.assignTracks(PerceptionData.observations(spec), cfg.assoc).cache()
    val columns = Seq("trackId", "score", "nObs", "nHuman", "maxConf", "cls")
    def byTrack(df: DataFrame) =
      df.select(columns.map(col): _*).collect().map(r => r.getLong(0) -> r).toMap
    val features = Fixy.driverFeatures(learned, cfg, useDistance, useTrackLength, invert)
    val sparkRows = byTrack(Fixy.rankTracks(tracked, "all" -> Fixy.Ranking(_ => true, Fixy.eq2(features))).toDF())
    val refRows = byTrack(DataFrameReference.scoreTracks(tracked, learned, cfg, useDistance, useTrackLength, invert))

    val rows = tracked.collect().toSeq
    val driverScores = Loa.fromTracked(rows).flatMap(_.tracks.map { t =>
      t.trackId -> FactorGraph.compileTrack(t, features).score
    }).toMap

    assert(sparkRows.keySet == driverScores.keySet)
    assert(sparkRows.keySet == refRows.keySet)
    def close(a: Any, b: Any): Boolean = (a, b) match {
      case (x: Double, y: Double) => math.abs(x - y) < 1e-6
      case _                      => a == b
    }
    for ((tid, r) <- sparkRows) {
      val s = r.getDouble(1)
      assert(math.abs(s - driverScores(tid)) < 1e-6, s"track $tid: spark=$s driver=${driverScores(tid)}")
      val ref = refRows(tid)
      columns.indices.foreach { i =>
        assert(close(r.get(i), ref.get(i)), s"track $tid ${columns(i)}: spark=${r.get(i)} dataframe=${ref.get(i)}")
      }
    }
    tracked.unpersist()
  }

  test("spark scorer matches factor-graph reference (missing-track feature set)") {
    differential(useDistance = true, useTrackLength = false, invert = false)
  }
  test("spark scorer matches factor-graph reference (model-error feature set)") {
    differential(useDistance = false, useTrackLength = true, invert = true)
  }
  test("spark scorer matches factor-graph reference (volume+velocity only)") {
    differential(useDistance = false, useTrackLength = false, invert = false)
  }
  test("§8.3 bundle scores match the DataFrame reference (incoming transition only)") {
    val spec = PerceptionData.missingObsSim.copy(nScenes = 2)
    val tracked = Association.assignTracks(PerceptionData.observations(spec), cfg.assoc).cache()
    def byBundle(df: DataFrame) =
      df.select("bundleId", "score", "rank", "trackId", "frame", "nObs", "cls").collect()
        .map(r => r.getLong(0) -> r).toMap
    val fixy = byBundle(Fixy.rankMissingObservations(tracked, learned, cfg))
    val ref = byBundle(DataFrameReference.rankMissingObservations(tracked, learned, cfg))
    assert(fixy.nonEmpty)
    assert(fixy.keySet == ref.keySet)
    for ((bid, r) <- fixy) {
      val e = ref(bid)
      assert(math.abs(r.getDouble(1) - e.getDouble(1)) < 1e-6, s"bundle $bid: fixy=${r.getDouble(1)} dataframe=${e.getDouble(1)}")
      assert((2 until 7).forall(i => r.get(i) == e.get(i)), s"bundle $bid: fixy=$r dataframe=$e")
    }
    tracked.unpersist()
  }

  // --- one pass: every ranking of a dataset from one rebuild of each scene --------

  test("one pass ranks each method as its single-ranking entry point does") {
    import ss.implicits._
    type Key = (Long, Long, Int, Long) // (scene, track id, rank, score bits)
    def rows(df: DataFrame, score: String): Seq[Key] =
      df.select(col("scene"), col("trackId"), col("rank"), col(score)).as[(Long, Long, Int, Double)].collect().toSeq
        .map { case (s, id, rank, v) => (s, id, rank, java.lang.Double.doubleToRawLongBits(v)) }.sorted
    def check(onePass: DataFrame, single: Seq[(String, DataFrame, String)]): Unit = {
      assert(onePass.select("method").distinct().as[String].collect().toSet == single.map(_._1).toSet)
      for ((method, df, score) <- single) {
        val expected = rows(df, score)
        assert(expected.nonEmpty, method)
        assert(rows(onePass.where(col("method") === method), "score") == expected, method)
      }
    }

    val missing = PerceptionData.internalTrain.copy(nScenes = 2, pMissingTrack = 0.3)
    val tracked = Association.assignTracks(PerceptionData.observations(missing), cfg.assoc).cache()
    check(Fixy.rankTracks(tracked, Experiments.table3Rankings(learned): _*).toDF(),
      Seq(("fixy", Fixy.rankMissingTracks(tracked, learned, cfg), "score"),
        ("ma-conf", ModelAssertions.consistency(tracked, "conf", cfg.minTrackObs), "severity")) ++
        (1L to 5L).map(s => (s"ma-rand-$s", ModelAssertions.consistency(tracked, "rand", cfg.minTrackObs, s), "severity")))
    tracked.unpersist()

    val modelObs = PerceptionData.observations(PerceptionData.modelErrorSim.copy(nScenes = 2)).filter(_.source == Sources.Model)
    val model = Association.assignTracks(modelObs, cfg.assoc).cache()
    val flagged = ModelAssertions.allFlagged(model, appearMinObs = 4)
    // The exclusion is not vacuous: it removes tracks that Fixy would rank.
    assert(Fixy.rankModelErrors(model, learned, cfg, excludedTrackIds = flagged).count() <
      Fixy.rankModelErrors(model, learned, cfg).count())
    check(Fixy.rankGlobally(Fixy.rankTracks(model, Experiments.modelErrorRankings(learned): _*)).toDF(),
      Seq(("fixy", Fixy.rankModelErrors(model, learned, cfg, excludedTrackIds = flagged), "score"),
        ("uncertainty", Uncertainty.rankTracks(model), "severity")))
    model.unpersist()
  }
  test("the one pass rejects duplicate ranking names, naming them") {
    import ss.implicits._
    val e = intercept[IllegalArgumentException] {
      Fixy.rankTracks(ss.emptyDataset[TrackedObs], "fixy" -> Fixy.missingTracks(learned, cfg),
        "ma-conf" -> ModelAssertions.consistency("conf", cfg.minTrackObs, 0), "fixy" -> Fixy.missingTracks(learned, cfg))
    }
    assert(e.getMessage.contains("duplicate ranking names: fixy"), e.getMessage)
  }

  // --- metamorphic: rankings ignore row order, partitioning and scene ids

  test("rankings are unchanged by input row order and shuffle partition count") {
    import ss.implicits._
    type Ranked = (String, Long, Long, Int, Double) // (method or "", scene, track or bundle id, rank, score or severity)
    def withPartitions[A](n: Int)(body: => A): A = {
      val before = ss.conf.get("spark.sql.shuffle.partitions")
      ss.conf.set("spark.sql.shuffle.partitions", n.toString)
      try body finally ss.conf.set("spark.sql.shuffle.partitions", before)
    }
    def relabel(scene: Long): Long = 3 * scene + 7
    def assoc(spec: DatasetSpec, modelOnly: Boolean, scene: Long => Long) = {
      val obs = PerceptionData.observations(spec).filter(o => !modelOnly || o.source == Sources.Model)
      Association.assignTracks(obs.map(o => o.copy(scene = scene(o.scene))), cfg.assoc).cache()
    }
    // Scene-local ids: association packs the scene id above SceneStride.
    def local(rs: Seq[Ranked]): Seq[Ranked] =
      rs.map { case (m, s, id, rank, score) => (m, s, id % Association.SceneStride, rank, score) }.sorted
    // `relabels`: the ranking may not depend on scene ids. MA(rand) hashes the
    // track id, which holds the scene id, so relabelling may change it.
    final case class Ranker(name: String, spec: DatasetSpec, modelOnly: Boolean, id: String, score: String,
        relabels: Boolean, ranker: Dataset[TrackedObs] => DataFrame)
    val missingTracks = PerceptionData.internalTrain.copy(nScenes = 2, pMissingTrack = 0.3)
    val modelErrors = PerceptionData.modelErrorSim.copy(nScenes = 2)
    val rankers = Seq(
      Ranker("rankMissingTracks", missingTracks, false, "trackId", "score", true, Fixy.rankMissingTracks(_, learned, cfg)),
      Ranker("rankMissingObservations", PerceptionData.missingObsSim.copy(nScenes = 2), false, "bundleId", "score", true,
        Fixy.rankMissingObservations(_, learned, cfg)),
      Ranker("rankModelErrors", modelErrors, true, "trackId", "score", true, Fixy.rankModelErrors(_, learned, cfg)),
      Ranker("MA(conf)", missingTracks, false, "trackId", "severity", true, ModelAssertions.consistency(_, "conf")),
      Ranker("MA(rand, seed 3)", missingTracks, false, "trackId", "severity", false,
        ModelAssertions.consistency(_, "rand", seed = 3)),
      Ranker("uncertainty", modelErrors, true, "trackId", "severity", true, Uncertainty.rankTracks(_)),
      Ranker("one pass: Table 3", missingTracks, false, "trackId", "score", false,
        Fixy.rankTracks(_, Experiments.table3Rankings(learned): _*).toDF()),
      Ranker("one pass: §8.4", modelErrors, true, "trackId", "score", true,
        t => Fixy.rankGlobally(Fixy.rankTracks(t, Experiments.modelErrorRankings(learned): _*)).toDF()),
    )
    for (r <- rankers) {
      def rank(t: Dataset[TrackedObs]): Seq[Ranked] = {
        val df = r.ranker(t)
        val method = if (df.columns.contains("method")) col("method") else lit("")
        df.select(method, col("scene"), col(r.id), col("rank"), col(r.score)).as[(String, Long, Long, Int, Double)]
          .collect().toSeq.sorted
      }
      val tracked = assoc(r.spec, r.modelOnly, identity)
      val base = withPartitions(64)(rank(tracked))
      assert(base.nonEmpty, r.name)
      assert(rank(tracked.orderBy(rand(7))) == base, s"${r.name}: shuffled input rows")
      assert(withPartitions(1)(rank(tracked)) == base, s"${r.name}: 1 vs 64 shuffle partitions")
      // One input partition splits no scene, so the pass reads it as it is;
      // round-robin `repartition(64)` splits scenes, so the pass shuffles them.
      for (n <- Seq(1, 64)) assert(rank(tracked.repartition(n)) == base, s"${r.name}: $n input partitions")
      if (r.relabels) {
        val relabelled = assoc(r.spec, r.modelOnly, relabel)
        assert(local(rank(relabelled)) == local(base.map { case (m, s, i, rk, sc) => (m, relabel(s), i, rk, sc) }),
          s"${r.name}: scene ids relabelled s -> 3s + 7")
        relabelled.unpersist()
      }
      tracked.unpersist()
    }
  }

  // --- degenerate inputs ------------------------------------------------------

  test("every ranker returns no rows, with its documented columns, on empty input") {
    import ss.implicits._
    val empty = ss.emptyDataset[TrackedObs]
    // Two track shapes: Fixy's `score` is a baseline's `severity`.
    val scored = Seq("scene", "trackId", "score", "nObs", "nHuman", "maxConf", "cls", "rank")
    val baseline = Seq("scene", "trackId", "severity", "nObs", "nHuman", "maxConf", "cls", "rank")
    val rankings = Seq(
      "rankMissingTracks" -> (Fixy.rankMissingTracks(empty, learned, cfg), scored),
      "rankMissingObservations" -> (Fixy.rankMissingObservations(empty, learned, cfg),
        Seq("scene", "trackId", "bundleId", "frame", "score", "nObs", "cls", "rank")),
      "rankModelErrors" -> (Fixy.rankModelErrors(empty, learned, cfg), scored),
      "MA(conf)" -> (ModelAssertions.consistency(empty, "conf"), baseline),
      "MA(rand)" -> (ModelAssertions.consistency(empty, "rand", seed = 1), baseline),
      "uncertainty" -> (Uncertainty.rankTracks(empty), baseline),
    )
    for ((name, (df, columns)) <- rankings) {
      assert(df.columns.toSeq == columns, name)
      assert(df.count() == 0, name)
    }
  }
  test("scenes with only human or only model observations rank only their documented candidates") {
    val spec = PerceptionData.internalTrain.copy(nScenes = 2, pMissingTrack = 0.3)
    // Scene 0 keeps its human observations only, scene 1 its model observations only.
    val obs = PerceptionData.observations(spec).filter(o => (o.scene == 0) == (o.source == Sources.Human))
    val tracked = Association.assignTracks(obs, cfg.assoc).cache()
    // The scenes each ranking has rows for: §8.2 and uncertainty sampling need a
    // model-only track, §8.3 a human track with a model-only bundle, and §8.4
    // does not look at sources (its input is documented to be model-only).
    val rankings = Seq(
      "rankMissingTracks" -> (Fixy.rankMissingTracks(tracked, learned, cfg), Set(1L)),
      "rankMissingObservations" -> (Fixy.rankMissingObservations(tracked, learned, cfg), Set.empty[Long]),
      "rankModelErrors" -> (Fixy.rankModelErrors(tracked, learned, cfg), Set(0L, 1L)),
      "MA(conf)" -> (ModelAssertions.consistency(tracked, "conf"), Set(1L)),
      "MA(rand)" -> (ModelAssertions.consistency(tracked, "rand", seed = 1), Set(1L)),
      "uncertainty" -> (Uncertainty.rankTracks(tracked), Set(1L)),
    )
    for ((name, (df, scenes)) <- rankings)
      assert(df.select("scene").distinct().collect().map(_.getLong(0)).toSet == scenes, name)
    tracked.unpersist()
  }
  test("a class missing from training scores with the pooled KDEs") {
    val noPedestrians = Fixy.learn(PerceptionData.observations(trainSpec).filter(_.cls != Classes.Pedestrian), cfg)
    for (feature <- Seq("volume", "velocity")) {
      val kde = noPedestrians.byFeature(feature)
      assert(!kde.byClass.contains(Classes.Pedestrian), feature)
      for (x <- Seq(0.0, 0.3, 1.1, 1.4, 5.0, 14.5, 70.0))
        assert(lik(noPedestrians, feature)(Classes.Pedestrian, x) == kde.pooled.likelihood(x), s"$feature $x")
    }
    // A model-only pedestrian walking at 1.4 m/s (5 fps): a §8.2 candidate.
    val walker = (0 until 6).map(f =>
      TestObs.obs(frame = f, cls = Classes.Pedestrian, x = 10 + 0.28 * f, l = 0.8, w = 0.8, h = 1.75))
    val scores = Fixy.rankMissingTracks(Association.assignTracks(toDs(walker), cfg.assoc), noPedestrians, cfg)
      .select("score").collect().map(_.getDouble(0))
    assert(scores.length == 1)
    assert(java.lang.Double.isFinite(scores.head) && scores.head > math.log(FactorGraph.Eps), scores.head)
  }
  test("constant training values learn spike distributions that still score finitely") {
    // Three human car tracks, one per scene, with one box size and one speed (5 m/s).
    val humans = (0 until 3).flatMap(s => movingTrack(6, scene = s, source = Sources.Human, conf = 1.0))
    val spikes = Fixy.learn(toDs(humans), cfg)
    val car = humans.head
    for ((feature, v) <- Seq("volume" -> car.volume, "velocity" -> 5.0)) {
      assert(lik(spikes, feature)(Classes.Car, v) > 0.99, feature)
      assert(lik(spikes, feature)(Classes.Car, v * 1.5) < 1e-6, feature)
    }
    assert(spikes.byFeature("count").likelihood(None, 6.0) > 0.99)
    // A model track of another size and length scores Eq. 2 >= ln(eps) under all three feature sets.
    val truck = Loa.fromTracked(Association.assignScene(movingTrack(8).map(_.copy(l = 9.0, w = 2.5, h = 3.2))))
      .head.tracks.head
    for ((useDistance, useTrackLength, invert) <- Seq((true, false, false), (false, true, true), (false, false, false))) {
      val score = FactorGraph.compileTrack(truck, Fixy.driverFeatures(spikes, cfg, useDistance, useTrackLength, invert)).score
      assert(java.lang.Double.isFinite(score) && score >= math.log(FactorGraph.Eps), score)
    }
  }
  test("learn on human tracks of single observations fails for want of velocities") {
    // Frames further apart than maxGap: every observation is its own track.
    val singles = (0 until 3).map(i => TestObs.obs(frame = 10 * i, source = Sources.Human, trueId = i, conf = 1.0))
    val e = intercept[IllegalArgumentException](Fixy.learn(toDs(singles), cfg))
    assert(e.getMessage.contains("velocity"), e.getMessage)
  }

  // --- application 1: missing tracks (§8.2) ---------------------------------

  test("missing-track candidates contain no human observations") {
    val spec = PerceptionData.internalTrain.copy(nScenes = 2, pMissingTrack = 0.3)
    val tracked = Association.assignTracks(PerceptionData.observations(spec), cfg.assoc)
    val ranked = Fixy.rankMissingTracks(tracked, learned, cfg)
    assert(ranked.where(col("nHuman") > 0).count() == 0)
  }
  test("count filter drops tracks with fewer than 3 observations") {
    val spec = PerceptionData.internalTrain.copy(nScenes = 2, pMissingTrack = 0.3)
    val tracked = Association.assignTracks(PerceptionData.observations(spec), cfg.assoc)
    val ranked = Fixy.rankMissingTracks(tracked, learned, cfg)
    assert(ranked.where(col("nObs") < 3).count() == 0)
  }
  test("rank is dense per scene starting at 1") {
    val spec = PerceptionData.internalTrain.copy(nScenes = 2, pMissingTrack = 0.3)
    val tracked = Association.assignTracks(PerceptionData.observations(spec), cfg.assoc)
    val ranked = Fixy.rankMissingTracks(tracked, learned, cfg)
    val perScene = ranked.groupBy("scene").agg(min("rank").as("lo"), max("rank").as("hi"), count(lit(1)).as("n"))
      .collect()
    perScene.foreach { r =>
      assert(r.getAs[Int]("lo") == 1)
      assert(r.getAs[Int]("hi") == r.getAs[Long]("n"))
    }
  }
  test("a consistent missed object outranks an implausible ghost") {
    // missed car: plausible volume/motion; ghost: pedestrian-labeled truck-size box
    val car = movingTrack(10, trueId = 1, cls = Classes.Car, x0 = 10, dxPerFrame = 1.5)
    val ghost = (0 until 10).map { f =>
      TestObs.obs(frame = f, trueId = -5, cls = Classes.Pedestrian,
        x = -20 + 0.2 * f, y = 5, l = 8.0, w = 2.5, h = 3.0, conf = 0.7)
    }
    val tracked = Association.assignTracks(toDs(car ++ ghost), cfg.assoc)
    val ranked = Fixy.rankMissingTracks(tracked, learned, cfg).collect()
    assert(ranked.length == 2)
    val byRank = ranked.sortBy(_.getAs[Int]("rank"))
    // the real car's track contains trueId=1 observations
    val top = byRank.head
    assert(top.getAs[String]("cls") == Classes.Car)
  }
  test("a human-labeled track is never proposed") {
    val labeled = movingTrack(10, source = Sources.Human, conf = 1.0) ++
      movingTrack(10, source = Sources.Model).map(o => o.copy(x = o.x + 0.05))
    val missed = movingTrack(10, trueId = 2, y0 = 50)
    val tracked = Association.assignTracks(toDs(labeled ++ missed), cfg.assoc)
    val ranked = Fixy.rankMissingTracks(tracked, learned, cfg).collect()
    assert(ranked.length == 1)
  }

  // --- application 2: missing observations (§8.3) ---------------------------

  test("missing-obs candidates are model-only bundles inside human tracks") {
    val spec = PerceptionData.missingObsSim.copy(nScenes = 2)
    val tracked = Association.assignTracks(PerceptionData.observations(spec), cfg.assoc).cache()
    val ranked = Fixy.rankMissingObservations(tracked, learned, cfg)
    // every candidate's track must contain human observations
    val humanTracks = tracked.toDF().where(col("source") === Sources.Human)
      .select("trackId").distinct().collect().map(_.getLong(0)).toSet
    val candTracks = ranked.select("trackId").collect().map(_.getLong(0))
    assert(candTracks.forall(humanTracks.contains))
    tracked.unpersist()
  }
  test("good injected missing observation outranks distorted distractors") {
    val spec = PerceptionData.missingObsSim.copy(nScenes = 3)
    val tracked = Association.assignTracks(PerceptionData.observations(spec), cfg.assoc).cache()
    val truth = PerceptionData.truth(spec).collect()
    val goodId = truth.find(_.missingObsKind == "good").get.trueId
    val ranked = Fixy.rankMissingObservations(tracked, learned, cfg)
    val bundleTrue = tracked.toDF().groupBy("bundleId").agg(min("trueId").as("tid"))
    val joined = ranked.join(bundleTrue, Seq("bundleId"))
      .orderBy(desc("score")).select("tid").collect().map(_.getLong(0))
    assert(joined.nonEmpty)
    assert(joined.head == goodId, s"top candidate was ${joined.head}, expected $goodId")
    tracked.unpersist()
  }

  test("the §8.3 experiment's rank is one list over all scenes, by score then bundle id") {
    import ss.implicits._
    val spec = PerceptionData.missingObsSim.copy(nScenes = 3)
    val tracked = Association.assignTracks(PerceptionData.observations(spec), cfg.assoc).cache()
    val perScene = Fixy.rankMissingObservations(tracked, learned, cfg).as[ScoredBundle].collect().toSeq
    val global = Fixy.rankMissingObservationsGlobally(tracked, learned, cfg).as[ScoredBundle].collect().toSeq.sortBy(_.rank)
    assert(perScene.map(_.scene).distinct.size > 1)
    assert(global.map(_.rank) == (1 to perScene.size))
    assert(global.map(_.copy(rank = 0)) == perScene.map(_.copy(rank = 0)).sortBy(b => (-b.score, b.bundleId)))
    tracked.unpersist()
  }

  // --- application 3: model errors (§8.4) -----------------------------------

  test("inverted AOF ranks implausible tracks first") {
    val good = movingTrack(10, trueId = 1, x0 = 10, dxPerFrame = 1.5)
    val bad = (0 until 10).map { f =>
      TestObs.obs(frame = f, trueId = -7, cls = Classes.Pedestrian,
        x = 30 + 0.1 * f, y = 0, l = 8.0, w = 2.5, h = 3.0, conf = 0.95)
    }
    val tracked = Association.assignTracks(toDs(good ++ bad), cfg.assoc)
    val ranked = Fixy.rankModelErrors(tracked, learned, cfg).collect().sortBy(_.getAs[Int]("rank"))
    assert(ranked.length == 2)
    assert(ranked.head.getAs[String]("cls") == Classes.Pedestrian)
  }
  test("excluded track ids are not proposed") {
    val good = movingTrack(10, trueId = 1)
    val tracked = Association.assignTracks(toDs(good), cfg.assoc)
    val all = Fixy.rankModelErrors(tracked, learned, cfg).collect()
    assert(all.length == 1)
    val excluded = Fixy.rankModelErrors(tracked, learned, cfg,
      excludedTrackIds = Seq(all.head.getAs[Long]("trackId"))).collect()
    assert(excluded.isEmpty)
  }
  test("model-error ranking is global (one list across scenes)") {
    val spec = PerceptionData.modelErrorSim.copy(nScenes = 2)
    val modelObs = PerceptionData.observations(spec).filter(_.source == Sources.Model)
    val tracked = Association.assignTracks(modelObs, cfg.assoc)
    val ranked = Fixy.rankModelErrors(tracked, learned, cfg).collect()
    val ranks = ranked.map(_.getAs[Int]("rank")).sorted
    assert(ranks.toSeq == (1 to ranked.length))
  }

  // --- scoring invariants ---------------------------------------------------

  test("scores are finite for every track") {
    val spec = PerceptionData.internalTrain.copy(nScenes = 2)
    val tracked = Association.assignTracks(PerceptionData.observations(spec), cfg.assoc)
    val scores = Fixy.rankTracks(tracked, "all" -> Fixy.Ranking(_ => true, Fixy.eq2(Fixy.driverFeatures(learned, cfg))))
      .collect().map(_.score)
    assert(scores.nonEmpty)
    assert(scores.forall(s => !s.isNaN && !s.isInfinity))
  }
  test("identity vs inverted scores flip the order of a plausible vs implausible track") {
    val plausible = movingTrack(8, trueId = 1, x0 = 10, dxPerFrame = 1.5)
    val implausible = (0 until 8).map { f =>
      TestObs.obs(frame = f, trueId = 2, cls = Classes.Pedestrian,
        x = 40 + 0.1 * f, y = 0, l = 8.0, w = 2.5, h = 3.0, conf = 0.8)
    }
    val tracked = Association.assignTracks(toDs(plausible ++ implausible), cfg.assoc).cache()
    def scores(invert: Boolean): Map[String, Double] =
      Fixy.rankTracks(tracked,
        "all" -> Fixy.Ranking(_ => true, Fixy.eq2(Fixy.driverFeatures(learned, cfg, useDistance = false, invert = invert))))
        .collect().map(t => t.cls -> t.score).toMap
    val id = scores(invert = false)
    val inv = scores(invert = true)
    assert(id(Classes.Car) > id(Classes.Pedestrian))
    assert(inv(Classes.Car) < inv(Classes.Pedestrian))
    tracked.unpersist()
  }
}

object FixySpec {
  /** One training value: an instance of the learned feature `feature`. */
  final case class RowSample(feature: String, cls: Option[String], value: Double)

  /** [[Fixy.learn]] as first written, the reference of its bit-equality test:
    * one collected row per feature instance, grouped and fitted on the driver.
    */
  def learnRowWise(obs: Dataset[Obs], cfg: FixyConfig)(implicit spark: SparkSession): LearnedModel = {
    import spark.implicits._
    val features = Fixy.learnedFeatures(cfg)
    val samples = obs.filter(_.source == Sources.Human).groupByKey(_.scene).flatMapGroups { (_, rows) =>
      Loa.fromTracked(Association.assignScene(rows.toSeq, cfg.assoc)).flatMap(_.tracks).flatMap { t =>
        features.flatMap(f => Loa.instances(t, f).map(i => RowSample(f.name, i.cls, i.value)))
      }
    }.collect().toSeq.groupBy(_.feature)
    LearnedModel(features.map { f =>
      val fs = samples(f.name)
      val byClass = fs.groupBy(_.cls).collect {
        case (Some(c), vs) if vs.size >= cfg.minClassSamples => c -> Kde.fit(vs.map(_.value))
      }
      f.name -> ClassKde(byClass, Kde.fit(fs.map(_.value)))
    }.toMap)
  }
}
