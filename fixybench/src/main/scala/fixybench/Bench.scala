package fixybench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.SparkSession

import repro.jobs.JobSession

final case class Metric(name: String, value: Double, unit: String) {
  require(java.lang.Double.isFinite(value), s"$name is not a finite number: $value")
}

/** Result of one benchmark run. */
final case class Report(
    attempted: Int,
    failed: Int,
    metrics: Seq[Metric],
    failures: Seq[String],
    spans: Seq[Span],
)

/** Runs one workload as a single closed-loop client: one Spark session with
  * the jobs' settings, one operation at a time.
  */
object Bench {
  final case class Options(workload: String, seed: Long, seconds: Int, trace: Boolean)

  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 3

  /** End-to-end metrics, reported by every untraced run. Times are scaled by
    * [[Calibration]] to a reference machine speed; phase costs are process CPU
    * seconds, which vary less from run to run than the phases' wall times.
    * The unscaled figures are printed alongside.
    */
  val EndToEnd: Seq[String] =
    Seq("setup_s", "wall_s", "cpu_s", "learn_cpu_s", "rank_cpu_s", "s_per_scene", "peak_rss_mb")

  /** Layer calls whose Spark work is counted in a traced run. */
  val SparkLayers: Seq[String] = Seq(
    "perception", "learn", "association", "score.missing_tracks", "score.missing_obs", "score.model_errors",
    "baselines.consistency", "baselines.flagged", "baselines.uncertainty", "metrics.label", "metrics.quality")

  /** Layer spans whose traced time is reported as `<span>_s`. */
  private val TimedSpans: Seq[(String, String)] = Seq(
    "association.spark_s" -> "association", "learn.spark_s" -> "learn",
    "score.missing_tracks_s" -> "score.missing_tracks", "score.missing_obs_s" -> "score.missing_obs",
    "score.model_errors_s" -> "score.model_errors", "baselines.consistency_s" -> "baselines.consistency",
    "baselines.flagged_s" -> "baselines.flagged", "baselines.uncertainty_s" -> "baselines.uncertainty",
    "metrics.label_s" -> "metrics.label", "metrics.quality_s" -> "metrics.quality")

  private val SparkFields = Seq("jobs", "stages", "tasks", "empty_task_share", "shuffle_write_mb", "task_busy_s")

  /** Quality figures every workload reports. They vary from seed to seed, so
    * they are per-layer metrics rather than end-to-end ones.
    */
  private val SharedQuality = Seq("fixy_p10", "fixy_p5", "fixy_p1", "ma_conf_p10", "scene_coverage")

  /** Per-layer metrics, reported by every traced run. */
  val PerLayer: Seq[String] =
    PureLayers.Names ++ TimedSpans.map(_._1) ++ Seq("score.tracks", "score.candidates", "score.candidate_share") ++
      SparkLayers.flatMap(l => SparkFields.map(f => s"$l.$f")) ++
      Seq("spark.core_busy_share", "jvm.gc_s", "trace.overhead_s", "trace.overhead_share") ++
      SharedQuality.map(q => s"quality.$q")

  /** Quality figures, reported with their unit. */
  val Quality: Seq[(String, String)] = Seq(
    "fixy_p10" -> "ratio", "fixy_p5" -> "ratio", "fixy_p1" -> "ratio", "ma_conf_p10" -> "ratio",
    "scene_coverage" -> "ratio", "recall" -> "ratio", "missing_obs_rank" -> "rank",
    "missing_obs_candidates" -> "count", "model_error_p10" -> "ratio", "uncertainty_p10" -> "ratio",
    "model_error_max_conf" -> "ratio")

  private def session(): SparkSession = {
    val s = JobSession.build("fixybench")
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def run(o: Options): Report = {
    val w = Workloads(o.workload, o.seed)
    val counters = new SparkCounters
    var spark: SparkSession = null
    var inputs: Inputs = null
    try {
      // Set-up: session start, input generation and caching. Each repetition
      // starts from a stopped session; the last one's inputs are used.
      val setupTimes = (1 to SetupReps).map { _ =>
        if (spark != null) { inputs.unpersist(); spark.stop() }
        val t0 = System.nanoTime()
        spark = session()
        if (o.trace) { spark.sparkContext.addSparkListener(counters); counters.reset(spark.sparkContext) }
        spark.sparkContext.setLocalProperty(SparkCounters.LayerKey, "perception")
        inputs = Inputs.generate(w)(spark)
        spark.sparkContext.setLocalProperty(SparkCounters.LayerKey, null)
        (System.nanoTime() - t0) / 1e9
      }
      val sc = spark.sparkContext
      val perception = counters.snapshot(sc).getOrElse("perception", LayerCounts())
      sc.removeSparkListener(counters)

      val calibration = Calibration.seconds()
      val scale = Calibration.ReferenceS / calibration
      val untraced = new Tracer(traced = false, sc)
      val traced = new Tracer(traced = true, sc)
      val results = ArrayBuffer.empty[OpResult]
      val op = new Operation(w, inputs)(spark)
      val start = System.nanoTime()
      // A traced run makes one untraced operation, the base of the tracing
      // overhead, before its traced one.
      do {
        untraced.op = results.size
        results += op.run(untraced, results.find(_.wallS.isDefined))
      } while (!o.trace && (System.nanoTime() - start) / 1e9 < o.seconds)

      val done = results.filter(_.wallS.isDefined)
      require(done.nonEmpty, s"every operation threw: ${results.flatMap(_.failures).mkString("; ")}")
      val first = done.head
      def median(f: OpResult => Double): Double = Stats.median(done.map(f).toSeq)
      val endToEnd = Seq(
        Metric("setup_s", Stats.median(setupTimes) * scale, "s"),
        Metric("wall_s", median(_.wallS.get) * scale, "s"),
        Metric("cpu_s", median(_.cpuS) * scale, "s"),
        Metric("learn_cpu_s", median(_.learnCpuS) * scale, "s"),
        Metric("rank_cpu_s", median(_.rankCpuS) * scale, "s"),
        Metric("s_per_scene", median(_.rankCpuS) * scale / w.evalScenes, "s"),
        Metric("peak_rss_mb", SparkCounters.peakRssMb, "MB"),
        Metric("calibration_s", calibration, "s"),
        Metric("raw.setup_s", Stats.median(setupTimes), "s"),
        Metric("raw.wall_s", median(_.wallS.get), "s"),
        Metric("raw.cpu_s", median(_.cpuS), "s"),
        Metric("raw.learn_cpu_s", median(_.learnCpuS), "s"),
        Metric("raw.rank_cpu_s", median(_.rankCpuS), "s"),
        Metric("raw.learn_s", median(_.learnS), "s"),
        Metric("raw.rank_s", median(_.rankS), "s"),
      )
      val quality = Quality.collect { case (k, unit) if first.quality.contains(k) => Metric(k, first.quality(k), unit) }

      val perLayer =
        if (!o.trace) Seq.empty
        else {
          val pure = PureLayers.measure(w, first.learned.get)
          traced.op = results.size
          sc.addSparkListener(counters)
          counters.reset(sc)
          val gc0 = SparkCounters.gcSeconds
          val tr = op.run(traced, Some(first))
          val gcS = SparkCounters.gcSeconds - gc0
          val layers = counters.snapshot(sc) + ("perception" -> perception)
          sc.removeSparkListener(counters)
          results += tr
          val wall = tr.wallS.getOrElse(throw new IllegalStateException(tr.failures.mkString("; ")))
          val busyS = layers.collect { case (l, c) if l != "perception" && l != "checks" => c.taskRunMs }.sum / 1e3
          // The untraced operation ran on a colder JVM, so this understates
          // the overhead by the warm-up the traced operation no longer pays.
          val base = first.wallS.get
          pure ++
            TimedSpans.map { case (m, s) => Metric(m, traced.seconds(traced.op, s), "s") } ++
            Seq(
              Metric("score.tracks", tr.sizes.tracks.toDouble, "count"),
              Metric("score.candidates", tr.sizes.candidates.toDouble, "count"),
              Metric("score.candidate_share", tr.sizes.candidates.toDouble / math.max(1L, tr.sizes.tracks), "ratio"),
            ) ++
            SparkLayers.flatMap { l =>
              val c = layers.getOrElse(l, LayerCounts())
              Seq(
                Metric(s"$l.jobs", c.jobs.toDouble, "count"),
                Metric(s"$l.stages", c.stages.toDouble, "count"),
                Metric(s"$l.tasks", c.tasks.toDouble, "count"),
                Metric(s"$l.empty_task_share", c.emptyTaskShare, "ratio"),
                Metric(s"$l.shuffle_write_mb", c.shuffleWriteBytes / 1e6, "MB"),
                Metric(s"$l.task_busy_s", c.taskRunMs / 1e3, "s"),
              )
            } ++
            Seq(
              Metric("spark.core_busy_share", busyS / (wall * sc.defaultParallelism), "ratio"),
              Metric("jvm.gc_s", gcS, "s"),
              Metric("trace.overhead_s", wall - base, "s"),
              Metric("trace.overhead_share", (wall - base) / base, "ratio"),
            ) ++
            quality.filter(m => SharedQuality.contains(m.name)).map(m => m.copy(name = s"quality.${m.name}"))
        }

      Report(results.size, results.count(_.failed), endToEnd ++ quality ++ perLayer,
        results.flatMap(_.failures).toSeq, untraced.spans ++ traced.spans)
    } finally if (spark != null) spark.stop()
  }
}
