package fixybench

import java.lang.management.ManagementFactory

import scala.collection.concurrent.TrieMap
import scala.jdk.CollectionConverters._

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._

/** Spark work done by one layer: jobs, stages and tasks run, tasks that read
  * no records, shuffle bytes written and summed task run time.
  */
final case class LayerCounts(
    jobs: Long = 0,
    stages: Long = 0,
    tasks: Long = 0,
    emptyTasks: Long = 0,
    shuffleWriteBytes: Long = 0,
    taskRunMs: Long = 0,
) {
  def emptyTaskShare: Double = if (tasks == 0) 0.0 else emptyTasks.toDouble / tasks
}

/** A listener that attributes Spark work to the layer named by the local
  * property [[SparkCounters.LayerKey]] of the thread that submitted the job.
  */
final class SparkCounters extends SparkListener {
  import SparkCounters.LayerKey

  private val stageLayer = TrieMap.empty[Int, String]
  private val counts = TrieMap.empty[String, LayerCounts]

  private def layerOf(props: java.util.Properties): String =
    Option(props).flatMap(p => Option(p.getProperty(LayerKey))).getOrElse("unattributed")

  private def bump(layer: String)(f: LayerCounts => LayerCounts): Unit = synchronized {
    counts.put(layer, f(counts.getOrElse(layer, LayerCounts())))
  }

  override def onJobStart(e: SparkListenerJobStart): Unit =
    bump(layerOf(e.properties))(c => c.copy(jobs = c.jobs + 1))

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    stageLayer.put(e.stageInfo.stageId, layerOf(e.properties))

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    bump(stageLayer.getOrElse(e.stageInfo.stageId, "unattributed"))(c => c.copy(stages = c.stages + 1))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    val (read, written, runMs) =
      if (m == null) (0L, 0L, 0L)
      else (m.inputMetrics.recordsRead + m.shuffleReadMetrics.recordsRead,
            m.shuffleWriteMetrics.bytesWritten, m.executorRunTime)
    bump(stageLayer.getOrElse(e.stageId, "unattributed")) { c =>
      c.copy(tasks = c.tasks + 1, emptyTasks = c.emptyTasks + (if (read == 0) 1 else 0),
        shuffleWriteBytes = c.shuffleWriteBytes + written, taskRunMs = c.taskRunMs + runMs)
    }
  }

  /** Counts per layer once every posted event has been delivered. */
  def snapshot(sc: SparkContext): Map[String, LayerCounts] = {
    ListenerBusDrain(sc)
    synchronized(counts.toMap)
  }

  def reset(sc: SparkContext): Unit = {
    ListenerBusDrain(sc)
    synchronized { counts.clear(); stageLayer.clear() }
  }
}

object SparkCounters {
  /** Spark local property naming the layer a job belongs to. */
  val LayerKey = "fixybench.layer"

  /** Total JVM garbage-collection time so far, in seconds. */
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum / 1e3

  /** Resident-set high-water mark of this process, in MB (Linux `VmHWM`). */
  def peakRssMb: Double = {
    val src = scala.io.Source.fromFile("/proc/self/status")
    try {
      src.getLines().collectFirst { case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024.0 }
        .getOrElse(throw new IllegalStateException("VmHWM missing from /proc/self/status"))
    } finally src.close()
  }
}
