package fixybench

import repro.core._
import repro.perception.{DatasetSpec, PerceptionData}

/** Per-scene cost of the pure-Scala layers on a warm JVM, one thread, no
  * Spark: scene generation, association, LOA rebuild, factor-graph compile and
  * score, and KDE fitting, over the same scenes an operation processes.
  */
object PureLayers {
  /** Every timing takes at least this many samples, so at least its median has
    * ten samples beyond it; layers with more scenes get a higher tail.
    */
  val MinSamples = 20

  private val cfg = FixyConfig()

  private def ms[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** Items run untimed first, to compile the code paths. */
  private val WarmUpItems = 5

  /** Runs `one` over a few of `items` to warm up, then over all of them in
    * enough passes for [[MinSamples]] samples; returns the last pass's outputs
    * and all times.
    */
  private def timed[I, O](items: Seq[I])(one: I => O): (Seq[O], Seq[Double]) = {
    items.take(WarmUpItems).foreach(one)
    val passes = math.max(1, math.ceil(MinSamples.toDouble / items.size).toInt)
    val runs = (1 to passes).map(_ => items.map(i => ms(one(i))))
    (runs.last.map(_._1), runs.flatMap(_.map(_._2)))
  }

  private val Timings =
    Seq("perception.gen_ms", "association.scene_ms", "kde.fit_ms", "loa.from_tracked_ms", "factor_graph.score_ms")

  /** Names of the metrics [[measure]] reports. */
  val Names: Seq[String] =
    Timings.flatMap(t => Seq(t, s"${t}_tail", s"${t}_tail_pct", s"${t}_n")) ++ Seq(
      "perception.obs", "association.scene_ms_max", "association.pairs", "association.bundles",
      "association.tracks", "kde.samples", "factor_graph.factors")

  private def summary(prefix: String, samples: Seq[Double]): Seq[Metric] = {
    val s = Stats.summarize(samples)
    Seq(Metric(prefix, s.median, "ms"), Metric(s"${prefix}_tail", s.tail, "ms"),
      Metric(s"${prefix}_tail_pct", s.tailPct, "%"), Metric(s"${prefix}_n", s.n.toDouble, "count"))
  }

  /** Same-frame observation pairs `assignScene` compares for bundling. */
  def pairs(obs: Seq[Obs]): Long =
    obs.groupBy(_.frame).values.map(f => f.size.toLong * (f.size - 1) / 2).sum

  def measure(w: Workload, learned: LearnedModel): Seq[Metric] = {
    // --- perception: genScene ---------------------------------------------
    val specs: Seq[DatasetSpec] = w.train +: w.apps.map(_.spec)
    val scenes = specs.flatMap(s => (0 until s.nScenes).map(i => (s, i.toLong)))
    val (generated, genMs) = timed(scenes) { case (s, i) => PerceptionData.genScene(s, i)._2 }
    val obsOf = scenes.map(_._1.name).zip(generated).groupBy(_._1).map { case (k, v) => k -> v.map(_._2) }

    // --- association: what the operation associates, scene by scene -------
    val trainScenes = obsOf(w.train.name).map(_.filter(_.source == Sources.Human))
    val evalScenes: Seq[(App, Vector[Obs])] = w.apps.flatMap { a =>
      obsOf(a.spec.name).map { os =>
        a -> (a match {
          case _: ModelErrors => os.filter(_.source == Sources.Model)
          case _              => os
        })
      }
    }
    val assocIn = trainScenes ++ evalScenes.map(_._2)
    val (assigned, assocMs) = timed(assocIn)(os => Association.assignScene(os, cfg.assoc))
    val trainTracked = assigned.take(trainScenes.size)
    val evalTracked = evalScenes.map(_._1).zip(assigned.drop(trainScenes.size))

    // --- LOA rebuild and factor-graph scoring of the evaluation scenes -----
    val (loaScenes, loaMs) = timed(evalTracked) { case (a, rows) => a -> Loa.fromTracked(rows) }
    def features(a: App): Seq[Loa.AppliedFeature] = a match {
      case _: ModelErrors => Fixy.driverFeatures(learned, cfg, useDistance = false, useTrackLength = true, invert = true)
      case _              => Fixy.driverFeatures(learned, cfg)
    }
    val (factors, fgMs) = timed(loaScenes) { case (a, scene) =>
      val fs = features(a)
      scene.flatMap(_.tracks).map { t => val c = FactorGraph.compileTrack(t, fs); c.score; c.nFactors.toLong }.sum
    }

    // --- KDE fits over the learning samples of the training split ----------
    val trainTracks = trainTracked.flatMap(rows => Loa.fromTracked(rows).flatMap(_.tracks))
    val volumes = trainTracks.flatMap(_.allObs.map(o => o.cls -> o.volume))
    val speeds = trainTracks.flatMap { t =>
      t.bundles.sliding(2).collect { case Seq(p, n) if n.frame > p.frame =>
        n.obs.map(_.cls).min -> Loa.transitionSpeed(p, n, cfg.fps).get
      }
    }
    def byClass(pairs: Seq[(String, Double)]): Seq[Seq[Double]] =
      pairs.groupBy(_._1).values.map(_.map(_._2)).filter(_.size >= cfg.minClassSamples).toSeq
    val fits: Seq[Seq[Double]] =
      byClass(volumes) ++ byClass(speeds) ++ Seq(volumes.map(_._2), speeds.map(_._2), trainTracks.map(_.nObs.toDouble))
    val (_, kdeMs) = timed(fits)(vs => Kde.fit(vs))

    summary("perception.gen_ms", genMs) ++
      Seq(Metric("perception.obs", generated.map(_.size.toLong).sum.toDouble, "count")) ++
      summary("association.scene_ms", assocMs) ++
      Seq(
        Metric("association.scene_ms_max", assocMs.max, "ms"),
        Metric("association.pairs", assocIn.map(pairs).sum.toDouble, "count"),
        Metric("association.bundles", assigned.map(_.map(_.bundleId).distinct.size.toLong).sum.toDouble, "count"),
        Metric("association.tracks", assigned.map(_.map(_.trackId).distinct.size.toLong).sum.toDouble, "count"),
      ) ++
      summary("kde.fit_ms", kdeMs) ++
      Seq(Metric("kde.samples", fits.map(_.size.toLong).sum.toDouble, "count")) ++
      summary("loa.from_tracked_ms", loaMs) ++
      summary("factor_graph.score_ms", fgMs) ++
      Seq(Metric("factor_graph.factors", factors.sum.toDouble, "count"))
  }
}
