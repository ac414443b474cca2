package repro.core

import java.util.concurrent.ConcurrentLinkedQueue

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalatest.concurrent.Eventually.{eventually, timeout}
import org.scalatest.time.SpanSugar._

import repro.SparkSpec
import repro.baselines.ModelAssertions
import repro.perception.PerceptionData

/** The shape of the per-scene passes ([[Association.byScene]]): each action
  * plans exactly one shuffle, by scene, as wide as the pass's input.
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

  test("each per-scene pass shuffles once, into as many partitions as its input has") {
    val obs = PerceptionData.observations(PerceptionData.internalTrain.copy(nScenes = 4)).repartition(3).cache()
    assert(obs.rdd.getNumPartitions == 3)
    val (learned, learnWidths) = shuffleWidths(Fixy.learn(obs, cfg))
    assert(learnWidths == Seq(3), "learn's sample pass")
    val tracked = Association.assignTracks(obs, cfg.assoc)
    assert(shuffleWidths(tracked.collect())._2 == Seq(3), "assignTracks")
    assert(tracked.rdd.getNumPartitions == 3, "assignTracks")
    tracked.cache()
    val passes = Seq[(String, Dataset[_])](
      "rankTracks" -> Fixy.rankTracks(tracked, "fixy" -> Fixy.missingTracks(learned, cfg)),
      "rankMissingObservations" -> Fixy.rankMissingObservations(tracked, learned, cfg),
    )
    for ((name, pass) <- passes) {
      assert(shuffleWidths(pass.collect())._2 == Seq(3), name)
      assert(pass.rdd.getNumPartitions == 3, name)
    }
    assert(shuffleWidths(ModelAssertions.allFlagged(tracked))._2 == Seq(3), "allFlagged")
    tracked.unpersist()
    obs.unpersist()
  }

  test("a pass over an input without partitions is one partition wide") {
    import ss.implicits._
    val empty = ss.createDataset(ss.sparkContext.emptyRDD[Obs])
    assert(empty.rdd.getNumPartitions == 0)
    val tracked = Association.assignTracks(empty, cfg.assoc)
    assert(widths(tracked.queryExecution.executedPlan) == Seq(1), "planned before it runs")
    assert(tracked.collect().isEmpty)
    val e = intercept[IllegalArgumentException](Fixy.learn(empty, cfg))
    assert(e.getMessage.contains("no human labels to learn the volume distribution from"), e.getMessage)
  }
}
