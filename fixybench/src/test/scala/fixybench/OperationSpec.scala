package fixybench

import org.apache.spark.sql.DataFrame
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import repro.jobs.JobSession
import repro.perception.PerceptionData

/** Corrupted rankings make the operation fail its output checks. */
class OperationSpec extends AnyFunSuite with BeforeAndAfterAll {
  implicit private lazy val spark: org.apache.spark.sql.SparkSession = JobSession.build("fixybench-operation")
  override def afterAll(): Unit = { inputs.unpersist(); spark.stop() }

  private val tiny = Workload("tiny", PerceptionData.internalTrain.copy(nScenes = 3), Seq(
    MissingTracks(PerceptionData.internalAudit, recall = false),
    ModelErrors(PerceptionData.modelErrorSim.copy(nScenes = 2))))
  private lazy val inputs = Inputs.generate(tiny)

  private def run(topK: (DataFrame, String, String, Boolean) => Vector[Proposal], first: Option[OpResult] = None) =
    new Operation(tiny, inputs, topK = topK).run(new Tracer(traced = false, spark.sparkContext), first)

  private lazy val clean = run(Checks.topK _)

  private def corrupt(f: Vector[Proposal] => Vector[Proposal]) =
    (df: DataFrame, id: String, score: String, hasHuman: Boolean) => f(Checks.topK(df, id, score, hasHuman))

  test("an uncorrupted operation passes its checks and repeats exactly") {
    assert(!clean.failed, clean.failures)
    assert(clean.wallS.exists(_ > 0))
    assert(clean.top.values.forall(_.nonEmpty))
    assert(!run(Checks.topK _, Some(clean)).failed)
  }

  test("swapped ranks fail the operation") {
    val r = run(corrupt(top => top.updated(0, top(0).copy(rank = 2)).updated(1, top(1).copy(rank = 1))))
    assert(r.failed)
    assert(r.failures.exists(_.contains("ordered before")), r.failures)
  }

  test("an injected human track fails the operation") {
    val r = run(corrupt(top => top.updated(0, top(0).copy(nHuman = 1))))
    assert(r.failed)
    assert(r.failures.exists(_.contains("human observations")), r.failures)
  }

  test("a changed score fails the reference check") {
    val r = run(corrupt(top => top.updated(0, top(0).copy(score = top(0).score + 1e-3))))
    assert(r.failures.exists(_.contains("reference")), r.failures)
  }
}
