package fixybench

import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import repro.jobs.JobSession

class SparkCountersSpec extends AnyFunSuite with BeforeAndAfterAll {
  private lazy val spark = JobSession.build("fixybench-counters")
  override def afterAll(): Unit = spark.stop()

  private def counted(layer: String)(job: => Unit): LayerCounts = {
    val sc = spark.sparkContext
    val c = new SparkCounters
    sc.addSparkListener(c)
    try {
      sc.setLocalProperty(SparkCounters.LayerKey, layer)
      job
      sc.setLocalProperty(SparkCounters.LayerKey, null)
      val snap = c.snapshot(sc)
      assert(snap.keySet == Set(layer))
      snap(layer)
    } finally sc.removeSparkListener(c)
  }

  test("a one-stage job is one job, one stage and one task per partition") {
    val c = counted("count") { spark.sparkContext.parallelize(1 to 100, 4).count() }
    assert(c.jobs == 1 && c.stages == 1 && c.tasks == 4)
    assert(c.shuffleWriteBytes == 0)
  }

  test("a shuffle job counts both stages, the bytes written and the tasks that read nothing") {
    val c = counted("reduce") {
      spark.sparkContext.parallelize(1 to 100, 4).map(x => (x % 2, x)).reduceByKey(_ + _, 3).collect()
    }
    assert(c.jobs == 1 && c.stages == 2 && c.tasks == 7)
    assert(c.shuffleWriteBytes > 0)
    // Map tasks read a parallelized collection (no input records); of the
    // three reduce partitions, only two receive a key.
    assert(c.emptyTasks == 5)
    assert(c.taskRunMs >= 0)
  }

  test("jobs go to the layer named when they were submitted") {
    val sc = spark.sparkContext
    val c = new SparkCounters
    sc.addSparkListener(c)
    try {
      val t = new Tracer(traced = true, sc)
      t.span("outer") {
        sc.parallelize(1 to 10, 2).count()
        t.span("inner")(sc.parallelize(1 to 10, 3).count())
        sc.parallelize(1 to 10, 1).count()
      }
      val snap = c.snapshot(sc)
      assert(snap("outer").jobs == 2 && snap("outer").tasks == 3)
      assert(snap("inner").jobs == 1 && snap("inner").tasks == 3)
    } finally sc.removeSparkListener(c)
  }
}
