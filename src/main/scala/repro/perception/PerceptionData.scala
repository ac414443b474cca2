package repro.perception

import java.util.Random

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.{Classes, Obs, Sources}

/** An audit-style forced missing track (the internal dataset's exhaustively
  * audited scene had exactly 24 of these, §8.2): class, number of visible
  * frames, and distance from the AV. Short-visibility and far entries model
  * the hard cases (e.g. the occluded motorcycle of Fig. 4).
  */
final case class ForcedMissing(cls: String, visLen: Int, dist: Double)

/** Generator parameters for one synthetic dataset (see DESIGN.md for the
  * mapping from paper datasets to presets). Everything is deterministic in
  * (spec, sceneIdx).
  */
final case class DatasetSpec(
    name: String,
    nScenes: Int,
    seed: Long,
    objectsPerScene: Int = 40,
    /** Probability an object's human track is entirely missing (§8.2 errors). */
    pMissingTrack: Double = 0.0,
    /** The first `cleanScenes` scene indices get no injected missing tracks
      * (paper: errors were found in 32 of 46 Lyft scenes).
      */
    cleanScenes: Int = 0,
    /** Exact audit-style missing tracks injected into scene 0. */
    forcedMissingScene0: Seq[ForcedMissing] = Seq.empty,
    /** §8.3 injection: labeled tracks in scene 0 that lose exactly one human
      * frame while the model predicts it correctly (the real missing obs) ...
      */
    goodMissingObsScene0: Int = 0,
    /** ... and, per scene, tracks that lose one frame where the model box is
      * badly distorted (implausible distractor bundles, Fig. 7 analogue).
      */
    badMissingObsPerScene: Int = 0,
    /** Spurious detector tracks per scene. */
    ghostsPerScene: Int = 0,
    ghostConfLo: Double = 0.45,
    ghostConfHi: Double = 0.9,
    /** When true, ghosts cycle through MA-triggering subtypes
      * (normal / flicker / appear / multibox) for the §8.4 experiment.
      */
    maGhostMix: Boolean = false,
    /** §8.4 "novel" consistent-but-wrong model tracks per scene. */
    novelErrorsPerScene: Int = 0,
    detNoisePos: Double = 0.10,
    detNoiseDim: Double = 0.06,
    confBase: Double = 0.97,
    confNoise: Double = 0.05,
) {
  import PerceptionData.{ForcedBase, GhostBase, IdStride, NovelBase}
  private def fits(field: String, n: Int, max: Long): Unit =
    require(n <= max, s"$field = $n exceeds $max: its ids would leave their per-scene id band")
  fits("objectsPerScene", objectsPerScene, ForcedBase)
  fits("forcedMissingScene0.size", forcedMissingScene0.size, IdStride - ForcedBase - 1)
  fits("ghostsPerScene", ghostsPerScene, NovelBase - GhostBase)
  fits("novelErrorsPerScene", novelErrorsPerScene, IdStride - NovelBase)
}

/** Ground truth emitted alongside the observations; read only by evaluation
  * code. `kind` is "object" (real), "ghost" (spurious model track) or
  * "novel" (§8.4 consistent-but-wrong model track). Negative `trueId` means
  * no real object.
  */
final case class TruthRow(
    scene: Long,
    trueId: Long,
    kind: String,
    cls: String,
    missingTrack: Boolean,
    missingObsKind: String, // "none" | "good" | "bad"
    missingObsFrames: Seq[Int],
    visLen: Int,
    dist0: Double,
)

/** Synthetic AV perception scenes: true objects with class-conditional sizes
  * and motion, vendor-style human labels with injected errors, and a
  * simulated LIDAR detector (distance-decaying detection probability, box
  * noise, calibratable confidence, ghost tracks). See DESIGN.md
  * "Substitutions" for why this preserves the behaviour Fixy exploits.
  */
object PerceptionData {

  /** Per-scene id space; ids are scene * IdStride + local, with one band of
    * local ids per kind: objects from 1, forced missing tracks after
    * ForcedBase, and (negated) ghosts and novel errors from their bases.
    */
  val IdStride = 100000L
  val ForcedBase = 10000L
  val GhostBase = 1000L
  val NovelBase = 50000L

  /** Fixed generator constants: frames, human label noise, confidence slope, brief-visibility rate. */
  val Fps = 5
  val NFrames = 75
  val HumanNoisePos = 0.03
  val HumanNoiseDim = 0.02
  val ConfSlope = 1.0 / 140
  val PShortVis = 0.08

  /** Class-conditional geometry and motion parameters (meters, m/s). Speeds
    * are clamped to `speedMax` so consecutive-frame boxes keep IOU above the
    * tracking threshold at 5 Hz.
    */
  final case class ClsParams(
      l: Double, w: Double, h: Double, dimJitter: Double,
      speedMean: Double, speedSd: Double, speedMax: Double, pParked: Double)

  val params: Map[String, ClsParams] = Map(
    Classes.Car        -> ClsParams(4.5, 1.9, 1.7, 0.12, 8.0, 3.0, 14.0, 0.35),
    Classes.Truck      -> ClsParams(8.5, 2.6, 3.2, 0.15, 6.0, 2.5, 12.0, 0.30),
    Classes.Pedestrian -> ClsParams(0.8, 0.8, 1.75, 0.10, 1.4, 0.5, 2.5, 0.10),
    Classes.Motorcycle -> ClsParams(2.2, 0.9, 1.5, 0.12, 5.0, 1.5, 7.0, 0.20),
  )

  private val classMix: Seq[(String, Double)] =
    Seq(Classes.Car -> 0.55, Classes.Truck -> 0.15, Classes.Pedestrian -> 0.18, Classes.Motorcycle -> 0.12)

  private def sampleClass(rng: Random): String = {
    val u = rng.nextDouble()
    var acc = 0.0
    classMix.collectFirst { case (c, p) if { acc += p; u < acc } => c }.getOrElse(Classes.Car)
  }

  private def clamp(v: Double, lo: Double, hi: Double): Double = math.max(lo, math.min(hi, v))

  /** Distance-decaying detection probability of the simulated detector. */
  def detectionProb(d: Double): Double = clamp(0.99 - d / 160.0, 0.05, 0.99)

  // --------------------------------------------------------------------------

  private final case class ObjState(
      id: Long, cls: String, l: Double, w: Double, h: Double,
      x0: Double, y0: Double, vx: Double, vy: Double,
      visStart: Int, visEnd: Int,
      missingTrack: Boolean,
      missingObsFrames: Set[Int],
      missingObsKind: String,
      badObsFrames: Set[Int])

  /** Generate one scene's ground truth and observation stream (pure). */
  def genScene(spec: DatasetSpec, sceneIdx: Long): (Vector[TruthRow], Vector[Obs]) = {
    val rng = new Random(spec.seed * 1000003L + sceneIdx * 7919L + 13L)
    val clean = sceneIdx < spec.cleanScenes

    // --- Regular objects ---------------------------------------------------
    var objects = Vector.empty[ObjState]
    for (i <- 0 until spec.objectsPerScene) {
      val cls = sampleClass(rng)
      val p = params(cls)
      val l = p.l * math.exp(rng.nextGaussian() * p.dimJitter)
      val w = p.w * math.exp(rng.nextGaussian() * p.dimJitter)
      val h = p.h * math.exp(rng.nextGaussian() * p.dimJitter)
      val r = 5.0 + 70.0 * rng.nextDouble()
      val th = 2 * math.Pi * rng.nextDouble()
      val parked = rng.nextDouble() < p.pParked
      val speed = if (parked) 0.0 else clamp(p.speedMean + rng.nextGaussian() * p.speedSd, 0.0, p.speedMax)
      val phi = 2 * math.Pi * rng.nextDouble()
      val shortVis = rng.nextDouble() < PShortVis
      val (vs, ve) =
        if (shortVis) {
          val len = 3 + rng.nextInt(13)
          val start = rng.nextInt(math.max(1, NFrames - len + 1))
          (start, math.min(NFrames, start + len))
        } else (0, NFrames)
      val missing = !clean && rng.nextDouble() < spec.pMissingTrack
      objects :+= ObjState(
        sceneIdx * IdStride + i + 1, cls, l, w, h,
        r * math.cos(th), r * math.sin(th),
        speed * math.cos(phi), speed * math.sin(phi),
        vs, ve, missing, Set.empty, "none", Set.empty)
    }

    // --- Forced audit-style missing tracks (scene 0 only) ------------------
    if (sceneIdx == 0) {
      spec.forcedMissingScene0.zipWithIndex.foreach { case (fm, j) =>
        val p = params(fm.cls)
        val l = p.l * math.exp(rng.nextGaussian() * p.dimJitter)
        val w = p.w * math.exp(rng.nextGaussian() * p.dimJitter)
        val h = p.h * math.exp(rng.nextGaussian() * p.dimJitter)
        val th = 2 * math.Pi * rng.nextDouble()
        val speed = clamp(p.speedMean + rng.nextGaussian() * p.speedSd, 0.0, p.speedMax)
        val phi = 2 * math.Pi * rng.nextDouble()
        val len = math.min(fm.visLen, NFrames)
        val start = if (len >= NFrames) 0 else rng.nextInt(NFrames - len + 1)
        objects :+= ObjState(
          sceneIdx * IdStride + ForcedBase + j + 1, fm.cls, l, w, h,
          fm.dist * math.cos(th), fm.dist * math.sin(th),
          speed * math.cos(phi), speed * math.sin(phi),
          start, start + len, missingTrack = true, Set.empty, "none", Set.empty)
      }
    }

    // --- §8.3 missing-observation injection --------------------------------
    // Labeled, fully visible objects lose exactly one mid-track human frame;
    // "good" ⇒ the model box there is accurate, "bad" ⇒ badly distorted.
    val nGood = if (sceneIdx == 0) spec.goodMissingObsScene0 else 0
    val nBad = spec.badMissingObsPerScene
    if (nGood + nBad > 0) {
      val eligible = objects.zipWithIndex.filter { case (o, _) =>
        !o.missingTrack && o.visStart == 0 && o.visEnd == NFrames && math.hypot(o.x0, o.y0) < 45.0
      }
      eligible.take(nGood + nBad).zipWithIndex.foreach { case ((o, idx), k) =>
        val frame = NFrames / 2 + rng.nextInt(5)
        val good = k < nGood
        objects = objects.updated(idx, o.copy(
          missingObsFrames = Set(frame),
          missingObsKind = if (good) "good" else "bad",
          badObsFrames = if (good) Set.empty else Set(frame)))
      }
    }

    // --- Emit observations for real objects --------------------------------
    val obsOut = Vector.newBuilder[Obs]
    for (o <- objects; f <- o.visStart until o.visEnd) {
      val x = o.x0 + o.vx * f / Fps
      val y = o.y0 + o.vy * f / Fps
      val d = math.hypot(x, y)
      if (!o.missingTrack && !o.missingObsFrames.contains(f)) {
        obsOut += Obs(
          sceneIdx, f, Sources.Human, o.id, o.cls,
          x + rng.nextGaussian() * HumanNoisePos,
          y + rng.nextGaussian() * HumanNoisePos,
          0.0,
          o.l * math.exp(rng.nextGaussian() * HumanNoiseDim),
          o.w * math.exp(rng.nextGaussian() * HumanNoiseDim),
          o.h * math.exp(rng.nextGaussian() * HumanNoiseDim),
          conf = 1.0)
      } else {
        // Keep the RNG stream aligned across labeled/unlabeled variants.
        rng.nextGaussian(); rng.nextGaussian(); rng.nextGaussian()
        rng.nextGaussian(); rng.nextGaussian()
      }
      // The model predicts a "good" injected missing observation correctly;
      // the draw is still taken, so the RNG stream stays aligned.
      val goodInjection = o.missingObsKind == "good" && o.missingObsFrames.contains(f)
      if (rng.nextDouble() < detectionProb(d) || goodInjection) {
        val distort = o.badObsFrames.contains(f)
        val dimScale = if (distort) 0.4 else 1.0
        obsOut += Obs(
          sceneIdx, f, Sources.Model, o.id, o.cls,
          x + rng.nextGaussian() * spec.detNoisePos,
          y + rng.nextGaussian() * spec.detNoisePos,
          0.0,
          o.l * dimScale * math.exp(rng.nextGaussian() * spec.detNoiseDim),
          o.w * dimScale * math.exp(rng.nextGaussian() * spec.detNoiseDim),
          o.h * dimScale * math.exp(rng.nextGaussian() * spec.detNoiseDim),
          conf = clamp(spec.confBase - d * ConfSlope + rng.nextGaussian() * spec.confNoise, 0.05, 0.99))
      } else {
        rng.nextGaussian(); rng.nextGaussian(); rng.nextGaussian()
        rng.nextGaussian(); rng.nextGaussian(); rng.nextGaussian()
      }
    }

    // --- Ghost tracks -------------------------------------------------------
    var ghostTruth = Vector.empty[TruthRow]
    for (g <- 0 until spec.ghostsPerScene) {
      val id = -(sceneIdx * IdStride + GhostBase + g)
      val subtype =
        if (spec.maGhostMix) Seq("normal", "flicker", "appear", "multibox")(g % 4)
        else if (rng.nextDouble() < 0.15) "appear"
        else "normal"
      val labelCls = Classes.All(rng.nextInt(Classes.All.size))
      // 75% of ghosts borrow another class's dims (implausible for their
      // label); 25% keep their own (hard ghosts that KDEs may accept).
      val dimsCls = if (rng.nextDouble() < 0.75) {
        val others = Classes.All.filterNot(_ == labelCls)
        others(rng.nextInt(others.size))
      } else labelCls
      val p = params(dimsCls)
      val l = p.l * (0.5 + 1.3 * rng.nextDouble())
      val w = p.w * (0.5 + 1.3 * rng.nextDouble())
      val h = p.h * (0.5 + 1.3 * rng.nextDouble())
      val len = if (subtype == "appear") 1 + rng.nextInt(2) else 3 + rng.nextInt(12)
      val start = rng.nextInt(math.max(1, NFrames - len))
      val r = 5.0 + 55.0 * rng.nextDouble()
      val th = 2 * math.Pi * rng.nextDouble()
      var gx = r * math.cos(th)
      var gy = r * math.sin(th)
      val jit = (0.15 + 0.30 * rng.nextDouble()) * math.min(l, w)
      for (fi <- 0 until len) {
        val f = start + fi
        gx += (2 * rng.nextDouble() - 1) * jit
        gy += (2 * rng.nextDouble() - 1) * jit
        // Flicker ghosts skip two mid frames (gap ≤ maxGap keeps one track).
        val skip = subtype == "flicker" && len >= 6 && (fi == len / 2 || fi == len / 2 + 1)
        if (!skip) {
          val nBoxes = if (subtype == "multibox") 3 else 1
          for (b <- 0 until nBoxes) {
            val off = if (nBoxes == 1) 0.0 else 0.25 * b
            obsOut += Obs(
              sceneIdx, f, Sources.Model, id, labelCls,
              gx + off, gy + off, 0.0,
              l * math.exp(rng.nextGaussian() * 0.08),
              w * math.exp(rng.nextGaussian() * 0.08),
              h * math.exp(rng.nextGaussian() * 0.08),
              conf = spec.ghostConfLo + (spec.ghostConfHi - spec.ghostConfLo) * rng.nextDouble())
          }
        }
      }
      ghostTruth :+= TruthRow(sceneIdx, id, "ghost", labelCls, missingTrack = false, "none", Seq.empty, len, r)
    }

    // --- §8.4 novel errors: consistent-but-wrong model tracks ---------------
    var novelTruth = Vector.empty[TruthRow]
    for (j <- 0 until spec.novelErrorsPerScene) {
      val id = -(sceneIdx * IdStride + NovelBase + j)
      val tpe = Seq("wrongcls", "voldrift", "jittervel")(j % 3)
      val len = 8 + rng.nextInt(8)
      val start = rng.nextInt(math.max(1, NFrames - len))
      // Reserved radius band keeps novel tracks from landing on (and merging
      // with) real objects' tracks, which would dilute their ground truth.
      val r = 45.0 + 25.0 * rng.nextDouble()
      val th = 2 * math.Pi * rng.nextDouble()
      val phi = 2 * math.Pi * rng.nextDouble()
      val car = params(Classes.Car)
      val (labelCls, bl, bw, bh, speed) = tpe match {
        case "wrongcls" => (Classes.Pedestrian, car.l, car.w, car.h, 8.0) // car-sized, car-fast "pedestrian"
        case "voldrift" => (Classes.Car, car.l, car.w, car.h, 5.0)
        // localization error (Fig. 9): undersized boxes + flip-flopping motion
        case _          => (Classes.Car, car.l * 0.6, car.w * 0.6, car.h * 0.6, 0.0)
      }
      var nx = r * math.cos(th)
      var ny = r * math.sin(th)
      for (fi <- 0 until len) {
        val f = start + fi
        if (tpe == "jittervel") {
          // ±2.0 m alternating jumps (inside the tracker's distance gate for
          // the 2.7 m box): a flip-flopping, undersized car prediction.
          val dir = if (fi % 2 == 0) 1.0 else -1.0
          nx += dir * 2.0 * math.cos(phi)
          ny += dir * 2.0 * math.sin(phi)
        } else {
          nx += speed / Fps * math.cos(phi)
          ny += speed / Fps * math.sin(phi)
        }
        val scale = if (tpe == "voldrift") Seq(0.6, 1.0, 1.5)(fi % 3) else 1.0
        obsOut += Obs(
          sceneIdx, f, Sources.Model, id, labelCls,
          nx, ny, 0.0,
          bl * scale * math.exp(rng.nextGaussian() * 0.03),
          bw * scale * math.exp(rng.nextGaussian() * 0.03),
          bh * scale * math.exp(rng.nextGaussian() * 0.03),
          conf = 0.88 + 0.09 * rng.nextDouble())
      }
      novelTruth :+= TruthRow(sceneIdx, id, "novel", labelCls, missingTrack = false, "none", Seq.empty, len, r)
    }

    val objTruth = objects.map { o =>
      TruthRow(
        sceneIdx, o.id, "object", o.cls, o.missingTrack,
        o.missingObsKind, o.missingObsFrames.toSeq.sorted,
        o.visEnd - o.visStart, math.hypot(o.x0, o.y0))
    }
    (objTruth ++ ghostTruth ++ novelTruth, obsOut.result())
  }

  // --------------------------------------------------------------------------
  // Spark entry points: one generator task per scene.
  // --------------------------------------------------------------------------

  def observations(spec: DatasetSpec)(implicit spark: SparkSession): Dataset[Obs] = {
    import spark.implicits._
    spark.range(spec.nScenes).flatMap(i => genScene(spec, i)._2)
  }

  def truth(spec: DatasetSpec)(implicit spark: SparkSession): Dataset[TruthRow] = {
    import spark.implicits._
    spark.range(spec.nScenes).flatMap(i => genScene(spec, i)._1)
  }

  // --------------------------------------------------------------------------
  // Presets (see DESIGN.md "Substitutions" and the per-table index).
  // --------------------------------------------------------------------------

  /** Training split for learning the Lyft-side feature distributions. The
    * public model is noisy (paper §8.2 discussion): many spurious tracks and
    * poorly calibrated confidences that overlap the real detections'.
    */
  val lyftTrain: DatasetSpec = DatasetSpec(
    name = "lyft-train", nScenes = 60, seed = 101,
    pMissingTrack = 0.25, ghostsPerScene = 52,
    ghostConfLo = 0.45, ghostConfHi = 0.88,
    detNoisePos = 0.12, detNoiseDim = 0.08,
    confBase = 0.93, confNoise = 0.10)

  /** The Lyft validation set analogue: 46 scenes, 14 clean (paper: errors in 32/46). */
  val lyftEval: DatasetSpec = lyftTrain.copy(name = "lyft-eval", nScenes = 46, seed = 11, cleanScenes = 14)

  /** The exhaustively audited internal scene: exactly 24 forced missing
    * tracks, several of them short-visibility or far (the recall misses).
    */
  val auditMissing24: Seq[ForcedMissing] =
    Seq.tabulate(8)(i => ForcedMissing(Classes.Car, 75, 10.0 + 5.0 * i)) ++
      Seq(ForcedMissing(Classes.Car, 2, 15.0), ForcedMissing(Classes.Car, 2, 25.0)) ++
      Seq.tabulate(4)(i => ForcedMissing(Classes.Truck, 75, 12.0 + 8.0 * i)) ++
      Seq(ForcedMissing(Classes.Truck, 75, 85.0)) ++
      Seq.tabulate(3)(i => ForcedMissing(Classes.Pedestrian, 75, 8.0 + 7.0 * i)) ++
      Seq(ForcedMissing(Classes.Pedestrian, 2, 12.0), ForcedMissing(Classes.Pedestrian, 75, 80.0)) ++
      Seq.tabulate(2)(i => ForcedMissing(Classes.Motorcycle, 75, 9.0 + 6.0 * i)) ++
      Seq(ForcedMissing(Classes.Motorcycle, 3, 14.0), ForcedMissing(Classes.Motorcycle, 3, 20.0))

  /** The internal audited scene (better-calibrated internal model). */
  val internalAudit: DatasetSpec = DatasetSpec(
    name = "internal-audit", nScenes = 1, seed = 31,
    objectsPerScene = 30, pMissingTrack = 0.0,
    forcedMissingScene0 = auditMissing24,
    ghostsPerScene = 55, ghostConfLo = 0.45, ghostConfHi = 0.97,
    detNoisePos = 0.06, detNoiseDim = 0.05,
    confBase = 0.95, confNoise = 0.04)

  /** Training split for the internal-side feature distributions. */
  val internalTrain: DatasetSpec = internalAudit.copy(
    name = "internal-train", nScenes = 12, seed = 32,
    pMissingTrack = 0.08, forcedMissingScene0 = Seq.empty)

  /** §8.3: one good injected missing observation + distractor bad bundles. */
  val missingObsSim: DatasetSpec = internalTrain.copy(
    name = "missing-obs", nScenes = 5, seed = 41,
    pMissingTrack = 0.0, ghostsPerScene = 6,
    goodMissingObsScene0 = 1, badMissingObsPerScene = 3)

  /** §8.4: model-error scenes (no human labels used), with MA-triggering
    * ghosts and high-confidence novel errors.
    */
  val modelErrorSim: DatasetSpec = DatasetSpec(
    name = "model-err", nScenes = 5, seed = 51,
    objectsPerScene = 30, pMissingTrack = 0.0,
    ghostsPerScene = 20, ghostConfLo = 0.35, ghostConfHi = 0.75,
    maGhostMix = true, novelErrorsPerScene = 3,
    confBase = 0.95, confNoise = 0.05)
}
