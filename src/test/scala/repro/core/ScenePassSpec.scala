package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.{ShuffleDependency, SparkException}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalatest.concurrent.Eventually.{eventually, timeout}
import org.scalatest.time.SpanSugar._

import repro.SparkSpec
import repro.baselines.ModelAssertions
import repro.perception.PerceptionData

/** The shape of the per-scene passes ([[Association.byScene]]): a pass over
  * an input that splits a scene across partitions plans exactly one shuffle,
  * by scene, as wide as its input; a pass over an input that keeps each scene
  * in one partition (the generator's output, every pass's output) plans none
  * and keeps its input's width.
  */
class ScenePassSpec extends SparkSpec {
  implicit private lazy val ss: SparkSession = spark

  private val cfg = FixyConfig()
  private object Plans extends AdaptiveSparkPlanHelper

  /** The width of each shuffle in `plan`, AQE stages included. */
  private def widths(plan: SparkPlan): Seq[Int] =
    Plans.collect(plan) { case e: ShuffleExchangeExec => e.outputPartitioning.numPartitions }

  /** `body`'s result, and the width of each shuffle in the executed plans of
    * the queries it runs.
    */
  private def shuffleWidths[A](body: => A): (A, Seq[Int]) = {
    val marker = "scene_pass_spec_marker"
    val events = new ConcurrentLinkedQueue[Option[SparkPlan]] // None: a marker query
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        events.add(if (qe.analyzed.output.exists(_.name == marker)) None else Some(qe.executedPlan))
      def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    // Listener events arrive in order but late, so `body`'s are those between
    // two marker queries; earlier queries' stragglers land before the first.
    def mark(n: Int): Unit = {
      ss.range(1).toDF(marker).collect()
      eventually(timeout(30.seconds))(assert(events.asScala.count(_.isEmpty) == n))
    }
    ss.listenerManager.register(listener)
    val result = try { mark(1); val r = body; mark(2); r } finally ss.listenerManager.unregister(listener)
    (result, events.asScala.toSeq.dropWhile(_.nonEmpty).drop(1).takeWhile(_.nonEmpty).flatten.flatMap(widths))
  }

  /** Whether `rdd`'s lineage shuffles anywhere, inside a plan Spark SQL
    * handed over as an RDD included.
    */
  private def shuffles(rdd: RDD[_]): Boolean =
    rdd.dependencies.exists {
      case _: ShuffleDependency[_, _, _] => true
      case d => shuffles(d.rdd)
    }

  private def generated = PerceptionData.observations(PerceptionData.internalTrain.copy(nScenes = 4))

  /** Each ranking pass over `tracked`, by name. */
  private def passes(tracked: Dataset[TrackedObs], learned: LearnedModel): Seq[(String, () => Dataset[_])] = Seq(
    "rankTracks" -> (() => Fixy.rankTracks(tracked, "fixy" -> Fixy.missingTracks(learned, cfg),
      "ma-conf" -> ModelAssertions.consistency("conf", cfg.minTrackObs, seed = 0))),
    "rankMissingObservations" -> (() => Fixy.rankMissingObservations(tracked, learned, cfg)),
  )

  test("over an input that splits scenes, learn and assignTracks shuffle once, as wide as the input") {
    val obs = generated.repartition(3).cache() // round-robin: every scene in every partition
    assert(Association.scenesByPartition(obs.rdd).map(_.length).toSeq == Seq(4, 4, 4))
    assert(shuffleWidths(Fixy.learn(obs, cfg))._2 == Seq(3), "learn")
    val (tracked, trackWidths) = shuffleWidths { val t = Association.assignTracks(obs, cfg.assoc); t.collect(); t }
    assert(trackWidths == Seq(3), "assignTracks")
    assert(tracked.rdd.getNumPartitions == 3, "assignTracks")
    assert(shuffles(tracked.rdd), "assignTracks")
    obs.unpersist()
  }

  test("over the generator's and assignTracks' output, no pass shuffles and each keeps its input's width") {
    val obs = generated
    val width = obs.rdd.getNumPartitions
    val (learned, learnWidths) = shuffleWidths(Fixy.learn(obs, cfg))
    assert(learnWidths.isEmpty, "learn")
    val (tracked, trackWidths) = shuffleWidths { val t = Association.assignTracks(obs, cfg.assoc); t.collect(); t }
    assert(trackWidths.isEmpty, "assignTracks")
    assert(tracked.rdd.getNumPartitions == width, "assignTracks")
    assert(!shuffles(tracked.rdd), "assignTracks")
    tracked.cache()
    for ((name, pass) <- passes(tracked, learned)) {
      val ((passWidth, passShuffles), passWidths) = shuffleWidths { val d = pass(); d.collect(); (d.rdd.getNumPartitions, shuffles(d.rdd)) }
      assert(passWidths.isEmpty && !passShuffles, name)
      assert(passWidth == width, name)
    }
    assert(shuffleWidths(ModelAssertions.allFlagged(tracked))._2.isEmpty, "allFlagged")
    tracked.unpersist()
  }

  test("the same rows, each scene in one partition or split, give the same results") {
    val clustered = generated.cache()
    val split = clustered.repartition(3).cache()
    def results(obs: Dataset[Obs]) = {
      val learned = Fixy.learn(obs, cfg)
      val tracked = Association.assignTracks(obs, cfg.assoc).cache()
      val out = (tracked.collect().sortBy(_.toString).toSeq,
        passes(tracked, learned).map { case (name, pass) => name -> pass().toDF().collect().map(_.toSeq).sortBy(_.toString).toSeq },
        ModelAssertions.allFlagged(tracked))
      tracked.unpersist()
      out
    }
    val (a, b) = (results(clustered), results(split))
    assert(a._1.nonEmpty && a._2.forall(_._2.nonEmpty) && a._3.nonEmpty)
    assert(a == b)
    Seq(split, clustered).foreach(_.unpersist())
  }

  test("a pass's output may be coalesced or unioned: the guard checks the input partition, not the task") {
    val obs = generated
    val tracked = Association.assignTracks(obs, cfg.assoc)
    val rows = tracked.collect().sortBy(_.toString).toSeq
    assert(rows.nonEmpty && obs.rdd.getNumPartitions > 1)
    assert(tracked.coalesce(1).collect().sortBy(_.toString).toSeq == rows)
    val other = Association.assignTracks(PerceptionData.observations(PerceptionData.lyftEval.copy(nScenes = 2)), cfg.assoc)
    assert(tracked.union(other).collect().sortBy(_.toString).toSeq == (rows ++ other.collect()).sortBy(_.toString))
    val learned = Fixy.learn(obs, cfg)
    for ((name, pass) <- passes(tracked, learned)) {
      val out = pass().toDF()
      val base = out.collect().map(_.toSeq).sortBy(_.toString).toSeq
      assert(base.nonEmpty, name)
      assert(out.coalesce(1).collect().map(_.toSeq).sortBy(_.toString).toSeq == base, name)
      assert(out.union(pass().toDF()).collect().map(_.toSeq).sortBy(_.toString).toSeq == (base ++ base).sortBy(_.toString), name)
    }
  }

  test("an uncached input with its own shuffle by scene is read through one plan, not split twice") {
    // AQE coalesces a shuffle by its bytes: here a read of the scene column
    // alone lands in fewer partitions than a read of whole rows.
    val session = ss.newSession()
    Seq("spark.sql.adaptive.coalescePartitions.parallelismFirst" -> "false",
      "spark.sql.adaptive.advisoryPartitionSizeInBytes" -> "64k",
      "spark.sql.adaptive.coalescePartitions.minPartitionSize" -> "1k").foreach { case (k, v) => session.conf.set(k, v) }
    val obs = PerceptionData.observations(PerceptionData.internalTrain.copy(nScenes = 4))(session)
    val shuffled = obs.repartition(col("scene"))
    assert(shuffled.select(col("scene")).rdd.getNumPartitions < shuffled.rdd.getNumPartitions)
    val expected = Association.assignTracks(obs, cfg.assoc)(session).collect().sortBy(_.toString).toSeq
    assert(Association.assignTracks(shuffled, cfg.assoc)(session).collect().sortBy(_.toString).toSeq == expected)
    def densities(m: LearnedModel) = m.byFeature.view.mapValues(c => (c.byClass.view.mapValues(_.gridDensity.toSeq).toMap, c.pooled.gridDensity.toSeq)).toMap
    assert(densities(Fixy.learn(shuffled, cfg)(session)) == densities(Fixy.learn(obs, cfg)(session)))
  }

  test("a pass over an input without partitions returns nothing and plans no shuffle") {
    import ss.implicits._
    val empty = ss.createDataset(ss.sparkContext.emptyRDD[Obs])
    assert(empty.rdd.getNumPartitions == 0)
    val (tracked, trackWidths) = shuffleWidths { val t = Association.assignTracks(empty, cfg.assoc); t.collect(); t }
    assert(trackWidths.isEmpty)
    assert(tracked.collect().isEmpty && tracked.rdd.getNumPartitions == 0)
    val e = intercept[IllegalArgumentException](Fixy.learn(empty, cfg))
    assert(e.getMessage.contains("no human labels to learn the volume distribution from"), e.getMessage)
  }

  test("the partition guard accepts the scenes the check saw and rejects any other") {
    val seen = Array(Array(0L, 1L), Array.empty[Long], Array(2L))
    for (p <- seen.indices) Association.checkPartition(p, seen(p), seen)
    for ((p, scenes) <- Seq(0 -> Array(0L), 0 -> Array(0L, 1L, 2L), 1 -> Array(1L), 2 -> Array(1L, 2L), 3 -> Array.empty[Long])) {
      val e = intercept[IllegalStateException](Association.checkPartition(p, scenes, seen))
      assert(e.getMessage.contains(s"partition $p holds scenes [${scenes.mkString(", ")}]"), e.getMessage)
      assert(e.getMessage.contains("not deterministic"), e.getMessage)
    }
  }

  test("a pass fails loudly when its input places a scene elsewhere on the second read") {
    import ss.implicits._
    // Read k (a task each for two partitions) puts scene (partition + k) % 2
    // in each partition: each read keeps scenes apart, but the two disagree.
    ScenePassSpec.reads.set(0)
    val flipping = ss.range(0, 2, 1, 2).mapPartitions { it =>
      val k = ScenePassSpec.reads.getAndIncrement() / 2
      it.map(i => TestObs.obs(scene = (i + k) % 2, frame = 0, x = 0, y = 0))
    }
    val e = intercept[SparkException](Association.assignTracks(flipping, cfg.assoc).collect())
    assert(e.getMessage.contains("not deterministic"), e.getMessage)
  }
}

object ScenePassSpec {
  /** Tasks run so far that read the flipping input (tasks share the test JVM). */
  val reads = new AtomicInteger
}
