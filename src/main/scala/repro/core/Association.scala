package repro.core

import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.functions.col

/** Association substrate (§3 "the analyst first associates observations"):
  *
  *  1. *Bundling* — observations within the same (scene, frame) whose BEV IOU
  *     is ≥ `bundleIou` are merged into an observation bundle (β). This is the
  *     paper's default `TrackBundler` (IOU > 0.5).
  *  2. *Tracking* — bundles in nearby frames (gap ≤ `maxGap`) whose
  *     representative boxes have IOU ≥ `trackIou` are merged into a track (τ).
  *     A gap tolerance > 1 lets a flickering detector stay in one track, which
  *     is what the flicker model assertion (§8.4) inspects.
  *
  * The per-scene algorithm is pure Scala (exhaustive O(n²)-per-frame pairing +
  * union-find) so it can be unit-tested without Spark; `assignTracks` shards
  * it over scenes with [[byScene]] — scenes are independent, so this is
  * embarrassingly parallel.
  */
object Association {

  /** Association thresholds; defaults follow §3/§8.2. `maxGap` is the largest
    * frame *difference* bridged when tracking (maxGap = 3 tolerates up to two
    * consecutive missed detections, so a flickering detector stays in one
    * track — which is exactly what the flicker assertion inspects).
    *
    * `distGateFactor`: when no predecessor reaches `trackIou`, the nearest
    * predecessor within `min(distGateFactor · max(l, w), distGateCap)` of the
    * bundle's representative box is matched instead (doubled when bridging a
    * detection gap). This is standard tracker distance gating; it compensates
    * for our axis-aligned-box substitution, where a fast object moving across
    * its box's long axis can drop to IOU 0 between consecutive frames
    * (oriented boxes, which the paper's data has, would not). The absolute
    * cap reflects the largest plausible per-frame displacement (~14 m/s at
    * 5 Hz) so large boxes don't vacuum up their neighbours. Set the factor to
    * 0 to disable gating.
    */
  final case class Config(
      bundleIou: Double = 0.5,
      trackIou: Double = 0.1,
      maxGap: Int = 3,
      distGateFactor: Double = 0.8,
      distGateCap: Double = 2.8)

  /** Scene-local ids are packed below this; scene id is the high digits. */
  val SceneStride: Long = 1000000L

  /** Reject an observation the LOA model cannot score, naming the field. */
  private def validate(o: Obs): Unit = {
    def fail(field: String, v: Any, why: String): Nothing =
      throw new IllegalArgumentException(s"assignScene: $field = $v $why (scene ${o.scene}, frame ${o.frame})")
    def finite(field: String, v: Double): Unit = if (!v.isFinite) fail(field, v, "is not finite")
    def size(field: String, v: Double): Unit = if (!(v.isFinite && v > 0)) fail(field, v, "is not a finite positive size")
    finite("x", o.x); finite("y", o.y); finite("z", o.z)
    size("l", o.l); size("w", o.w); size("h", o.h)
    if (!(o.conf >= 0 && o.conf <= 1)) fail("conf", o.conf, "is outside [0, 1]") // NaN fails too
    if (o.source != Sources.Human && o.source != Sources.Model) fail("source", o.source, "is not human or model")
  }

  /** Validate one scene's observations, then assign bundle and track ids.
    *
    * Output order and ids are deterministic: input is sorted by
    * (frame, source, trueId, x, y) before id assignment.
    */
  def assignScene(obsIn: Seq[Obs], cfg: Config = Config()): IndexedSeq[TrackedObs] = {
    val obs = obsIn.toIndexedSeq.sortBy(o => (o.frame, o.source, o.trueId, o.x, o.y))
    if (obs.isEmpty) return IndexedSeq.empty
    obs.foreach(validate)
    require(obs.map(_.scene).distinct.size == 1, "assignScene expects a single scene")
    val scene = obs.head.scene
    val n = obs.length
    require(n <= SceneStride, // bundle and track ids are below n: keep them in the scene's id range
      s"assignScene: scene $scene has $n observations, more than SceneStride = $SceneStride")

    // --- Bundling: union same-frame observations with IOU >= bundleIou. ---
    val byFrame = obs.indices.groupBy(i => obs(i).frame)
    val ufObs = new UnionFind(n)
    for ((_, idxs) <- byFrame) {
      for (ai <- idxs.indices; bi <- (ai + 1) until idxs.length) {
        val a = idxs(ai); val b = idxs(bi)
        if (Geometry.iou(obs(a).box, obs(b).box) >= cfg.bundleIou) ufObs.union(a, b)
      }
    }
    val bundleOfObs = ufObs.componentIds
    val nBundles = bundleOfObs.max + 1

    // --- Representative box per bundle: the centroid of its member boxes. ---
    val bundleMembers = Array.fill(nBundles)(List.empty[Int])
    obs.indices.foreach(i => bundleMembers(bundleOfObs(i)) ::= i)
    val bundleFrame = bundleMembers.map(ms => obs(ms.head).frame)
    val bundleBox = bundleMembers.map(ms => Geometry.centroid(ms.map(obs(_).box)))

    // --- Tracking: greedily match each bundle to its best predecessor. ---
    val bundlesByFrame = (0 until nBundles).groupBy(bundleFrame)
    val frames = bundlesByFrame.keys.toIndexedSeq.sorted
    val ufBundle = new UnionFind(nBundles)
    for (f <- frames; b <- bundlesByFrame(f).sorted) {
      // Nearest prior frame wins; within it, the highest-IOU bundle, falling
      // back to the nearest bundle inside the distance gate.
      val gateBase =
        math.min(cfg.distGateFactor * math.max(bundleBox(b).l, bundleBox(b).w), cfg.distGateCap)
      var gap = 1
      var matched = false
      while (!matched && gap <= cfg.maxGap) {
        val prev = bundlesByFrame.getOrElse(f - gap, IndexedSeq.empty)
        if (prev.nonEmpty) {
          var best = -1
          var bestIou = cfg.trackIou
          for (p <- prev) {
            val i = Geometry.iou(bundleBox(b), bundleBox(p))
            if (i >= bestIou) { best = p; bestIou = i }
          }
          val gate = if (cfg.distGateFactor > 0) gateBase * math.min(gap, 2) else 0.0
          if (best < 0 && gate > 0) {
            var bestDist = gate
            for (p <- prev) {
              val d = Geometry.centerDistance(bundleBox(b), bundleBox(p))
              if (d <= bestDist) { best = p; bestDist = d }
            }
          }
          if (best >= 0) { ufBundle.union(b, best); matched = true }
        }
        gap += 1
      }
    }
    val trackOfBundle = ufBundle.componentIds

    obs.indices.map { i =>
      val o = obs(i)
      val b = bundleOfObs(i)
      TrackedObs(
        o.scene, o.frame, o.source, o.trueId, o.cls,
        o.x, o.y, o.z, o.l, o.w, o.h, o.conf,
        bundleId = scene * SceneStride + b,
        trackId = scene * SceneStride + trackOfBundle(b),
      )
    }
  }

  /** The per-scene pass every Spark phase runs: `f` gets a scene id and that
    * scene's rows of `ds`, which has a `scene` column.
    *
    * The rows are shuffled by `scene` once, into as many partitions as `ds`
    * has (at least 1), and grouped on that column, so the grouping reuses the
    * shuffle's hash partitioning. The width is set here because AQE never
    * coalesces the shuffle of a plan that is cached (Spark leaves
    * `canChangeCachedPlanOutputPartitioning` off), so a pass that let the
    * session pick would keep `spark.sql.shuffle.partitions`, mostly empty,
    * for every later read of its cached output. Reading `ds`'s width runs any
    * shuffle of its own a second time, unless `ds` is cached; every caller
    * passes a cached or shuffle-free input.
    */
  private[repro] def byScene[A, B: Encoder](ds: Dataset[A])(f: (Long, Iterator[A]) => IterableOnce[B]): Dataset[B] =
    ds.repartition(math.max(1, ds.rdd.getNumPartitions), col("scene"))
      .groupBy(col("scene")).as[Long, A](Encoders.scalaLong, ds.encoder)
      .flatMapGroups(f)

  /** Distributed wrapper: one `assignScene` call per scene. */
  def assignTracks(obs: Dataset[Obs], cfg: Config = Config())(implicit spark: SparkSession): Dataset[TrackedObs] = {
    import spark.implicits._
    byScene(obs)((_, it) => assignScene(it.toSeq, cfg))
  }
}
