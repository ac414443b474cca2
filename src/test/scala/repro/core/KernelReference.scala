package repro.core

/** The per-scene kernels as first written, kept as the references of the
  * differential tests in `KernelProps`: association by exhaustive same-frame
  * pairing, grouping and tuple-keyed sorts, and the LOA rebuild by nested
  * `groupBy`. The production kernels ([[Association.assignScene]],
  * [[Loa.fromTracked]]) must return exactly what these return.
  */
object KernelReference {
  import Association.{Config, SceneStride}

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

  /** Rebuild the LOA object model from association output: scenes and tracks
    * in id order, each track's bundles in (frame, bundle id) order.
    */
  def fromTracked(rows: Seq[TrackedObs]): Seq[Loa.Scene] = {
    import Loa.{Bundle, Scene, Track}
    rows.groupBy(_.scene).toSeq.sortBy(_._1).map { case (sceneId, sceneRows) =>
      val tracks = sceneRows.groupBy(_.trackId).toSeq.sortBy(_._1).map { case (tid, trackRows) =>
        val bundles = trackRows.groupBy(_.bundleId).toSeq.sortBy { case (bid, rs) => (rs.head.frame, bid) }
          .map { case (bid, rs) => Bundle(bid, rs.head.frame, rs.sortBy(o => (o.source, o.trueId, o.x)).map(_.toObs)) }
        Track(tid, bundles.toIndexedSeq)
      }
      Scene(sceneId, tracks)
    }
  }
}
