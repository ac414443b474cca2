package repro.perception

import org.apache.spark.sql.SparkSession

import repro.{Oracle, SparkSpec}
import repro.core.{Association, Classes, Sources}

class PerceptionDataSpec extends SparkSpec {
  implicit private lazy val ss: SparkSession = spark
  import org.apache.spark.sql.functions._

  private val tiny = PerceptionData.internalTrain.copy(nScenes = 2, objectsPerScene = 12, ghostsPerScene = 5)

  // Each count's largest legal value fills its id band; one more overflows it.
  private val forced = ForcedMissing(Classes.Car, 10, 20.0)
  private val idBands: Seq[(String, Int, Int => DatasetSpec)] = Seq(
    ("objectsPerScene", 10000, n => tiny.copy(objectsPerScene = n)),
    ("forcedMissingScene0.size", 89999, n => tiny.copy(forcedMissingScene0 = Seq.fill(n)(forced))),
    ("ghostsPerScene", 49000, n => tiny.copy(ghostsPerScene = n)),
    ("novelErrorsPerScene", 50000, n => tiny.copy(novelErrorsPerScene = n)),
  )
  for ((field, max, spec) <- idBands) test(s"DatasetSpec accepts $field = $max and rejects ${max + 1}") {
    spec(max) // accepted
    val e = intercept[IllegalArgumentException](spec(max + 1))
    assert(e.getMessage.contains(field), e.getMessage)
  }

  /** Each preset's truth rows, observation rows and a digest of every field of
    * every row, scene by scene, as the generator made them when this test was
    * written. A change that shifts the generator's random stream moves them.
    */
  private val pinned: Seq[(DatasetSpec, Int, Int, String)] = {
    import PerceptionData._
    Seq(
      (lyftTrain, 5520, 258009, "390e5730d523c218"),
      (lyftEval, 4232, 206937, "699ef0edfbc7a217"),
      (internalAudit, 109, 4602, "c1370c9c05167fe0"),
      (internalTrain, 1020, 44473, "cb79ccce4728ca17"),
      (missingObsSim, 180, 17726, "f017d32b895e5179"),
      (modelErrorSim, 265, 18230, "498e7621b42e67f0"),
    )
  }

  /** SHA-256 (first 16 hex digits) of the rows' fields in order: doubles by
    * their raw bits, strings as length and UTF-8 bytes, sequences as length
    * and elements, so the digest reads values, not collection types.
    */
  private def digest(rows: Iterator[Product]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    def long(v: Long): Unit = { buf.clear(); buf.putLong(v); md.update(buf.array()) }
    def field(v: Any): Unit = v match {
      case d: Double  => long(java.lang.Double.doubleToRawLongBits(d))
      case n: Long    => long(n)
      case n: Int     => long(n.toLong)
      case b: Boolean => long(if (b) 1L else 0L)
      case s: String  => val bytes = s.getBytes("UTF-8"); long(bytes.length.toLong); md.update(bytes)
      case s: Seq[_]  => long(s.size.toLong); s.foreach(field)
      case other      => fail(s"no digest for ${other.getClass}")
    }
    rows.foreach(_.productIterator.foreach(field))
    md.digest().take(8).map(b => f"$b%02x").mkString
  }

  for ((spec, nTruth, nObs, hash) <- pinned) test(s"${spec.name}: every scene's generated rows are pinned") {
    val scenes = (0L until spec.nScenes).map(PerceptionData.genScene(spec, _))
    val got = (scenes.map(_._1.size).sum, scenes.map(_._2.size).sum,
      digest(scenes.iterator.flatMap { case (truth, obs) => truth.iterator ++ obs.iterator }))
    assert(got == ((nTruth, nObs, hash)), s"${spec.name}: (truth rows, observation rows, digest)")
  }

  test("generation is deterministic in (spec, scene)") {
    val (t1, o1) = PerceptionData.genScene(tiny, 0)
    val (t2, o2) = PerceptionData.genScene(tiny, 0)
    assert(t1 == t2)
    assert(o1 == o2)
  }
  test("different scenes differ") {
    val (_, o0) = PerceptionData.genScene(tiny, 0)
    val (_, o1) = PerceptionData.genScene(tiny, 1)
    assert(o0 != o1)
  }
  test("different seeds differ") {
    val (_, a) = PerceptionData.genScene(tiny, 0)
    val (_, b) = PerceptionData.genScene(tiny.copy(seed = tiny.seed + 1), 0)
    assert(a != b)
  }
  test("truth rows cover objects and ghosts") {
    val (truth, _) = PerceptionData.genScene(tiny, 0)
    assert(truth.count(_.kind == "object") == tiny.objectsPerScene)
    assert(truth.count(_.kind == "ghost") == tiny.ghostsPerScene)
  }
  test("object ids are positive, ghost ids negative") {
    val (truth, _) = PerceptionData.genScene(tiny, 0)
    assert(truth.filter(_.kind == "object").forall(_.trueId > 0))
    assert(truth.filter(_.kind == "ghost").forall(_.trueId < 0))
  }
  test("frames are within [0, nFrames)") {
    val (_, obs) = PerceptionData.genScene(tiny, 0)
    assert(obs.forall(o => o.frame >= 0 && o.frame < PerceptionData.NFrames))
  }
  test("classes are the four common classes") {
    val (_, obs) = PerceptionData.genScene(tiny, 0)
    assert(obs.map(_.cls).toSet.subsetOf(Classes.All.toSet))
  }
  test("human observations have confidence 1, model in (0,1]") {
    val (_, obs) = PerceptionData.genScene(tiny, 0)
    assert(obs.filter(_.source == Sources.Human).forall(_.conf == 1.0))
    assert(obs.filter(_.source == Sources.Model).forall(o => o.conf > 0 && o.conf <= 1.0))
  }
  test("missing tracks have no human observations") {
    val spec = tiny.copy(pMissingTrack = 0.5)
    val (truth, obs) = PerceptionData.genScene(spec, 1)
    val missing = truth.filter(t => t.kind == "object" && t.missingTrack).map(_.trueId).toSet
    assert(missing.nonEmpty, "expected some injected missing tracks")
    assert(!obs.exists(o => o.source == Sources.Human && missing.contains(o.trueId)))
  }
  test("labeled objects have a human observation at every visible frame") {
    val (truth, obs) = PerceptionData.genScene(tiny.copy(pMissingTrack = 0.0), 1)
    val humanByObj = obs.filter(_.source == Sources.Human).groupBy(_.trueId)
    for (t <- truth if t.kind == "object" && t.missingObsFrames.isEmpty)
      assert(humanByObj(t.trueId).size == t.visLen, s"object ${t.trueId}")
  }
  test("clean scenes contain no missing tracks") {
    val spec = tiny.copy(pMissingTrack = 0.5, cleanScenes = 1)
    val (truth0, _) = PerceptionData.genScene(spec, 0)
    assert(!truth0.exists(_.missingTrack))
    val (truth1, _) = PerceptionData.genScene(spec, 1)
    assert(truth1.exists(_.missingTrack))
  }
  test("human box noise is small (labels are near truth)") {
    val (_, obs) = PerceptionData.genScene(tiny, 0)
    val human = obs.filter(_.source == Sources.Human)
    val byObjFrame = obs.filter(_.source == Sources.Model).groupBy(o => (o.trueId, o.frame))
    // human and model boxes of the same (object, frame) are close
    val dists = human.flatMap(hu => byObjFrame.get((hu.trueId, hu.frame)).map(mo =>
      math.hypot(hu.x - mo.head.x, hu.y - mo.head.y)))
    assert(dists.nonEmpty && dists.max < 1.5)
  }
  test("detection probability decays with distance") {
    assert(PerceptionData.detectionProb(5) > PerceptionData.detectionProb(50))
    assert(PerceptionData.detectionProb(50) > PerceptionData.detectionProb(150))
    assert(PerceptionData.detectionProb(1000) >= 0.05)
  }
  test("forced missing tracks appear with requested class/visibility") {
    val (truth, _) = PerceptionData.genScene(PerceptionData.internalAudit, 0)
    val forced = truth.filter(t => t.missingTrack && t.trueId % PerceptionData.IdStride > 10000)
    assert(forced.size == 24)
    assert(forced.count(_.cls == Classes.Car) == 10)
    assert(forced.count(_.cls == Classes.Truck) == 5)
    assert(forced.count(_.cls == Classes.Pedestrian) == 5)
    assert(forced.count(_.cls == Classes.Motorcycle) == 4)
  }
  test("audit scene has exactly 24 missing tracks total") {
    val (truth, _) = PerceptionData.genScene(PerceptionData.internalAudit, 0)
    assert(truth.count(_.missingTrack) == 24)
  }
  test("ghost confidences respect the configured range") {
    val (truth, obs) = PerceptionData.genScene(tiny, 0)
    val ghostIds = truth.filter(_.kind == "ghost").map(_.trueId).toSet
    val ghostObs = obs.filter(o => ghostIds.contains(o.trueId))
    assert(ghostObs.forall(o => o.conf >= tiny.ghostConfLo && o.conf <= tiny.ghostConfHi))
  }
  test("good missing-obs injection: one labeled frame dropped, model box accurate") {
    val spec = PerceptionData.missingObsSim
    val (truth, obs) = PerceptionData.genScene(spec, 0)
    val good = truth.filter(_.missingObsKind == "good")
    assert(good.size == 1)
    val t = good.head
    assert(t.missingObsFrames.size == 1)
    val f = t.missingObsFrames.head
    assert(!obs.exists(o => o.source == Sources.Human && o.trueId == t.trueId && o.frame == f))
    val modelAt = obs.filter(o => o.source == Sources.Model && o.trueId == t.trueId && o.frame == f)
    assert(modelAt.nonEmpty, "the model must detect the good missing observation")
    // accurate: dims near the class's canonical dims (no 0.4 distortion)
    val p = PerceptionData.params(t.cls)
    assert(modelAt.head.l > p.l * 0.5)
  }
  test("the model detects the good missing observation at every generator seed shift") {
    // Shifted as a benchmark workload shifts a preset: seed + 1000 · shift.
    val missed = (0 until 12).filterNot { shift =>
      val spec = PerceptionData.missingObsSim.copy(seed = PerceptionData.missingObsSim.seed + 1000L * shift)
      val (truth, obs) = PerceptionData.genScene(spec, 0)
      val Seq(good) = truth.filter(_.missingObsKind == "good")
      val Seq(f) = good.missingObsFrames
      obs.exists(o => o.source == Sources.Model && o.trueId == good.trueId && o.frame == f)
    }
    assert(missed.isEmpty, s"no model observation at the good injected frame at shifts ${missed.mkString(", ")}")
  }
  test("bad missing-obs injection distorts the model box") {
    val spec = PerceptionData.missingObsSim
    val (truth, obs) = PerceptionData.genScene(spec, 1) // scene 1: bad only
    val bad = truth.filter(_.missingObsKind == "bad")
    assert(bad.nonEmpty)
    for (t <- bad; f <- t.missingObsFrames) {
      val modelAt = obs.filter(o => o.source == Sources.Model && o.trueId == t.trueId && o.frame == f)
      val p = PerceptionData.params(t.cls)
      assert(modelAt.forall(_.l < p.l * 0.7), s"expected distorted box for ${t.trueId}")
    }
  }
  test("novel errors are continuous high-confidence tracks") {
    val spec = PerceptionData.modelErrorSim
    val (truth, obs) = PerceptionData.genScene(spec, 0)
    val novel = truth.filter(_.kind == "novel")
    assert(novel.size == spec.novelErrorsPerScene)
    for (t <- novel) {
      val os = obs.filter(_.trueId == t.trueId)
      assert(os.size >= 8)
      val frames = os.map(_.frame).sorted
      assert(frames.zip(frames.tail).forall { case (a, b) => b - a == 1 }, "no frame gaps")
      assert(os.forall(_.conf >= 0.88))
    }
  }
  test("multibox ghosts emit 3 boxes per frame") {
    val spec = PerceptionData.modelErrorSim
    val (truth, obs) = PerceptionData.genScene(spec, 0)
    val ghostIds = truth.filter(_.kind == "ghost").map(_.trueId)
    val multibox = ghostIds.filter { id =>
      obs.filter(_.trueId == id).groupBy(_.frame).values.exists(_.size == 3)
    }
    assert(multibox.nonEmpty)
  }
  test("flicker ghosts have a frame gap") {
    val spec = PerceptionData.modelErrorSim
    val (truth, obs) = PerceptionData.genScene(spec, 0)
    val ghostIds = truth.filter(_.kind == "ghost").map(_.trueId)
    val gappy = ghostIds.filter { id =>
      val fs = obs.filter(_.trueId == id).map(_.frame).distinct.sorted
      fs.size >= 2 && fs.zip(fs.tail).exists { case (a, b) => b - a > 1 }
    }
    assert(gappy.nonEmpty)
  }
  test("spark generation matches driver generation") {
    val viaSpark = PerceptionData.observations(tiny).collect().toSet
    val viaDriver = (0 until tiny.nScenes).flatMap(i => PerceptionData.genScene(tiny, i)._2).toSet
    assert(viaSpark == viaDriver)
  }
  test("every preset's generator output puts each scene in exactly one partition") {
    import PerceptionData._
    for (spec <- Seq(lyftTrain, lyftEval, internalAudit, internalTrain, missingObsSim, modelErrorSim)) {
      val scenes = Association.scenesByPartition(PerceptionData.observations(spec).rdd).toSeq.flatten
      assert(scenes.sorted == (0L until spec.nScenes), spec.name)
    }
  }
  test("oracle: per-source observation counts match DuckDB") {
    val df = PerceptionData.observations(tiny).toDF().cache()
    val agg = df.groupBy("source").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(agg, "SELECT source, COUNT(*) AS n FROM obs GROUP BY source", "obs" -> df)
  }
  test("oracle: mean volume per class matches DuckDB") {
    val df = PerceptionData.observations(tiny).toDF().cache()
    val agg = df.groupBy("cls")
      .agg(avg(col("l") * col("w") * col("h")).as("meanvol"))
    Oracle.assertEquivalent(
      agg,
      "SELECT cls, AVG(CAST(l AS DOUBLE) * CAST(w AS DOUBLE) * CAST(h AS DOUBLE)) AS meanvol FROM obs GROUP BY cls",
      "obs" -> df)
  }
  test("class-conditional volumes separate classes (KDE signal exists)") {
    val (_, obs) = PerceptionData.genScene(tiny.copy(objectsPerScene = 60), 0)
    val vols = obs.filter(o => o.source == Sources.Human).groupBy(_.cls)
      .view.mapValues(os => os.map(_.volume).sum / os.size).toMap
    if (vols.contains(Classes.Truck) && vols.contains(Classes.Pedestrian))
      assert(vols(Classes.Truck) > 10 * vols(Classes.Pedestrian))
  }
  test("the Lyft eval preset has errors in most but not all scenes") {
    val truth = PerceptionData.truth(PerceptionData.lyftEval).collect()
    val scenesWithErrors = truth.filter(t => t.kind == "object" && t.missingTrack).map(_.scene).distinct
    assert(scenesWithErrors.length > 20 && scenesWithErrors.length < 46)
  }
}
