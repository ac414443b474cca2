package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.reflect.ClassTag

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, Encoder, SparkSession}
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
  * The per-scene algorithm is pure Scala (a sweep over each frame plus
  * union-find, see [[assignScene]]) so it can be unit-tested without Spark;
  * `assignTracks` runs it once per scene with [[byScene]] — scenes are
  * independent, so this is embarrassingly parallel, and since the generator
  * writes each scene from one task, it moves no rows.
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
    *
    * Both IOU thresholds must be positive: boxes that do not overlap have
    * IOU 0, and [[assignScene]] never compares them.
    */
  final case class Config(
      bundleIou: Double = 0.5,
      trackIou: Double = 0.1,
      maxGap: Int = 3,
      distGateFactor: Double = 0.8,
      distGateCap: Double = 2.8) {
    require(bundleIou > 0 && bundleIou <= 1, s"Association.Config: bundleIou = $bundleIou is outside (0, 1]")
    require(trackIou > 0 && trackIou <= 1, s"Association.Config: trackIou = $trackIou is outside (0, 1]")
    require(maxGap >= 1, s"Association.Config: maxGap = $maxGap is below 1")
    require(distGateFactor >= 0, s"Association.Config: distGateFactor = $distGateFactor is not >= 0")
    require(distGateCap > 0, s"Association.Config: distGateCap = $distGateCap is not > 0")
  }

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

  /** The order ids are assigned in: (frame, source, trueId, x, y). */
  private val idOrder: java.util.Comparator[Obs] = { (a, b) =>
    var c = Integer.compare(a.frame, b.frame)
    if (c == 0) c = a.source.compareTo(b.source)
    if (c == 0) c = java.lang.Long.compare(a.trueId, b.trueId)
    if (c == 0) c = java.lang.Double.compare(a.x, b.x)
    if (c == 0) c = java.lang.Double.compare(a.y, b.y)
    c
  }

  /** Validate one scene's observations, then assign bundle and track ids.
    *
    * Output order and ids are deterministic: input is stably sorted by
    * (frame, source, trueId, x, y) before id assignment, so each frame is one
    * run of rows, and bundle ids (dense, in row order) give each frame's
    * bundles one id range, in frame order.
    *
    * Only pairs that can pass a threshold are compared, and each skip is
    * exact:
    *  - bundling sweeps each frame in order of box x-low, and stops a row's
    *    scan at the first later row whose x-low is ≥ the row's x-high. Those
    *    boxes do not overlap in x ([[Geometry.overlap1d]] is 0), so their IOU
    *    is 0, below `bundleIou`;
    *  - tracking computes a predecessor's IOU only if its box overlaps in x,
    *    and its center distance only if the x offset alone is within the best
    *    distance so far (the distance is at least the x offset). Candidates
    *    are still visited in ascending id, so ties go to the larger id.
    */
  def assignScene(obsIn: Seq[Obs], cfg: Config = Config()): IndexedSeq[TrackedObs] = {
    if (obsIn.isEmpty) return IndexedSeq.empty
    val obs = obsIn.toArray
    obs.foreach(validate)
    val scene = obs(0).scene
    require(obs.forall(_.scene == scene), "assignScene expects a single scene")
    val n = obs.length
    require(n <= SceneStride, // bundle and track ids are below n: keep them in the scene's id range
      s"assignScene: scene $scene has $n observations, more than SceneStride = $SceneStride")
    java.util.Arrays.sort(obs, idOrder) // stable

    // Frame runs: frame k's rows are [runStart(k), runStart(k + 1)).
    val runStart = {
      val b = Array.newBuilder[Int]
      var i = 0
      while (i < n) { if (i == 0 || obs(i).frame != obs(i - 1).frame) b += i; i += 1 }
      b += n
      b.result()
    }
    val nFrames = runStart.length - 1
    val runFrame = Array.tabulate(nFrames)(k => obs(runStart(k)).frame)
    val box = obs.map(_.box)
    val xLo = obs.map(o => Geometry.lo(o.x, o.l))
    val xHi = obs.map(o => Geometry.hi(o.x, o.l))

    // --- Bundling: union same-frame observations with IOU >= bundleIou. ---
    val ufObs = new UnionFind(n)
    val byLo: Array[Integer] = Array.tabulate(n)(Integer.valueOf)
    val byXLo: java.util.Comparator[Integer] = (a, b) => java.lang.Double.compare(xLo(a), xLo(b))
    var k = 0
    while (k < nFrames) {
      val end = runStart(k + 1)
      java.util.Arrays.sort(byLo, runStart(k), end, byXLo)
      var i = runStart(k)
      while (i < end) {
        val a: Int = byLo(i)
        var j = i + 1
        while (j < end && xLo(byLo(j)) < xHi(a)) {
          val b: Int = byLo(j)
          if (Geometry.iou(box(a), box(b)) >= cfg.bundleIou) ufObs.union(a, b)
          j += 1
        }
        i += 1
      }
      k += 1
    }
    val bundleOfObs = ufObs.componentIds
    val nBundles = bundleOfObs.max + 1
    // Frame k's bundles are [bundleStart(k), bundleStart(k + 1)).
    val bundleStart = runStart.map(i => if (i < n) bundleOfObs(i) else nBundles)

    // --- Representative box per bundle: the centroid of its member boxes,
    // each coordinate summed from the highest member row down. ---
    val sx, sy, sl, sw = new Array[Double](nBundles)
    val nMembers = new Array[Int](nBundles)
    var i = n - 1
    while (i >= 0) {
      val b = bundleOfObs(i); val o = obs(i)
      sx(b) += o.x; sy(b) += o.y; sl(b) += o.l; sw(b) += o.w; nMembers(b) += 1
      i -= 1
    }
    val bundleBox = Array.tabulate(nBundles) { b =>
      val m = nMembers(b)
      Box(sx(b) / m, sy(b) / m, sl(b) / m, sw(b) / m)
    }

    // --- Tracking: greedily match each bundle to its best predecessor. ---
    val ufBundle = new UnionFind(nBundles)
    k = 0
    while (k < nFrames) {
      val f = runFrame(k).toLong
      var b = bundleStart(k)
      while (b < bundleStart(k + 1)) {
        // Nearest prior frame wins; within it, the highest-IOU bundle, falling
        // back to the nearest bundle inside the distance gate.
        val bb = bundleBox(b)
        val gateBase = math.min(cfg.distGateFactor * math.max(bb.l, bb.w), cfg.distGateCap)
        var best = -1
        var pk = k - 1
        while (best < 0 && pk >= 0 && f - runFrame(pk) <= cfg.maxGap) {
          val gap = f - runFrame(pk)
          val from = bundleStart(pk)
          val until = bundleStart(pk + 1)
          var bestIou = cfg.trackIou
          var p = from
          while (p < until) {
            val pb = bundleBox(p)
            if (Geometry.overlap1d(bb.x, bb.l, pb.x, pb.l) > 0) {
              val iou = Geometry.iou(bb, pb)
              if (iou >= bestIou) { best = p; bestIou = iou }
            }
            p += 1
          }
          val gate = if (cfg.distGateFactor > 0) gateBase * math.min(gap, 2) else 0.0
          if (best < 0 && gate > 0) {
            var bestDist = gate
            p = from
            while (p < until) {
              val pb = bundleBox(p)
              if (math.abs(bb.x - pb.x) <= bestDist) {
                val d = Geometry.centerDistance(bb, pb)
                if (d <= bestDist) { best = p; bestDist = d }
              }
              p += 1
            }
          }
          pk -= 1
        }
        if (best >= 0) ufBundle.union(b, best)
        b += 1
      }
      k += 1
    }
    val trackOfBundle = ufBundle.componentIds

    ArraySeq.tabulate(n) { i =>
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
    * scene's rows of `ds`, once per scene, in ascending scene order within
    * each partition.
    *
    * Rows move only when they must. A first, small job lists the scenes of
    * each partition of `ds.rdd` ([[scenesByPartition]]). If no scene is in two
    * partitions, as in the generator's output and every pass's output, the
    * pass runs on that same RDD: no shuffle, as many partitions as `ds`.
    * Otherwise `ds` is first shuffled by `scene` into as many partitions as it
    * has. Either way each task groups its rows by scene ([[inScenes]]) and
    * calls `f` per group.
    *
    * Both reads of an unshuffled input go through the one RDD, so a shuffle
    * inside `ds`'s own plan runs once and both reads see its partitions. An
    * uncached input is still computed twice (the generator, about 3 ms a
    * scene). A nondeterministic input could place its scenes differently the
    * second time: each unshuffled task checks that its partition holds the
    * scenes the first job saw there ([[checkPartition]]) and fails if not.
    * The index it checks is the input partition's own, so the output may be
    * coalesced or unioned like any other dataset.
    *
    * A task holds all of its partition's rows at once, not one scene's: its
    * memory grows with the rows per partition. An input whose partitions do
    * not fit a task's share of the heap needs more partitions.
    */
  private[repro] def byScene[A <: SceneRow, B: Encoder](ds: Dataset[A])(f: (Long, Iterator[A]) => IterableOnce[B]): Dataset[B] = {
    implicit val tag: ClassTag[B] = implicitly[Encoder[B]].clsTag
    val rows = ds.rdd
    val seen = scenesByPartition(rows)
    val all = seen.flatten
    if (all.length == all.distinct.length)
      ds.sparkSession.createDataset(rows.mapPartitionsWithIndex((p, it) => inScenes(it)(checkPartition(p, _, seen))(f)))
    else ds.repartition(seen.length, col("scene")).mapPartitions(inScenes(_)(_ => ())(f))
  }

  /** `f` over each scene of one partition's `rows`, in ascending scene order,
    * after `check` has seen the partition's scenes.
    */
  private def inScenes[A <: SceneRow, B](rows: Iterator[A])(check: Array[Long] => Unit)(f: (Long, Iterator[A]) => IterableOnce[B]): Iterator[B] = {
    val groups = mutable.LongMap.empty[mutable.ArrayBuffer[A]]
    rows.foreach(r => groups.getOrElseUpdate(r.scene, mutable.ArrayBuffer.empty[A]) += r)
    val scenes = groups.keys.toArray.sorted
    check(scenes)
    scenes.iterator.flatMap(s => f(s, groups.remove(s).get.iterator))
  }

  /** The distinct scenes of each of `rows`' partitions, ascending: one job.
    * Its length is `rows`' width.
    */
  private[repro] def scenesByPartition(rows: RDD[_ <: SceneRow]): Array[Array[Long]] =
    rows.mapPartitions(it => Iterator(it.map(_.scene).toArray.distinct.sorted)).collect()

  /** Fail unless `scenes`, those input partition `partition` holds, are the
    * ones [[scenesByPartition]] listed there (`expected`).
    */
  private[core] def checkPartition(partition: Int, scenes: Array[Long], expected: Array[Array[Long]]): Unit =
    if (partition >= expected.length || !scenes.sameElements(expected(partition)))
      throw new IllegalStateException(
        s"byScene: partition $partition holds scenes [${scenes.mkString(", ")}] but the first read of the input " +
          s"found [${expected.lift(partition).fold("no such partition")(_.mkString(", "))}]: " +
          "the input is not deterministic; cache it before a per-scene pass")

  /** Distributed wrapper: one `assignScene` call per scene, in one [[byScene]]
    * pass. Its output has each scene in one partition (the one the scene was
    * in, when the input kept scenes apart), so passes over it move no rows.
    */
  def assignTracks(obs: Dataset[Obs], cfg: Config = Config())(implicit spark: SparkSession): Dataset[TrackedObs] = {
    import spark.implicits._
    byScene(obs)((_, it) => assignScene(it.toSeq, cfg))
  }
}
