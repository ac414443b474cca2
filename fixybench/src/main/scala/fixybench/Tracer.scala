package fixybench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.sql.Dataset

/** One timed call into a layer. `parent` is -1 for a top-level span; spans of
  * one operation share `op`.
  */
final case class Span(id: Int, parent: Int, op: Int, name: String, startNs: Long, endNs: Long, cpuNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Times every call into a layer as a [[Span]] kept in memory, and tags the
  * Spark jobs the call submits with the layer's name.
  *
  * When `traced`, each layer's output is forced (cached and counted) inside its
  * span, so the span holds that layer's work and no other. Untraced, outputs
  * are cached but left lazy, as an application would run them; phase times
  * are still read from the spans.
  */
final class Tracer(val traced: Boolean, sc: SparkContext) {
  private val done = ArrayBuffer.empty[Span]
  private var open = List.empty[(Int, String)]
  private var nextId = 0
  var op: Int = 0

  def spans: Seq[Span] = done.toSeq

  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.map(_._1).getOrElse(-1)
    open = (id, name) :: open
    sc.setLocalProperty(SparkCounters.LayerKey, name)
    val t0 = System.nanoTime()
    val c0 = Tracer.processCpuNs
    try body
    finally {
      val t1 = System.nanoTime()
      val c1 = Tracer.processCpuNs
      open = open.tail
      sc.setLocalProperty(SparkCounters.LayerKey, open.headOption.map(_._2).orNull)
      done += Span(id, parent, op, name, t0, t1, c1 - c0)
    }
  }

  /** Caches `ds`; when traced, also materializes it. */
  def force[T](ds: Dataset[T]): Dataset[T] = {
    val d = ds.cache()
    if (traced) d.count()
    d
  }

  /** Summed duration of operation `op`'s spans with one of `names`. */
  def seconds(op: Int, names: String*): Double =
    done.iterator.filter(s => s.op == op && names.contains(s.name)).map(_.seconds).sum

  /** Summed process CPU time of operation `op`'s spans with one of `names`. */
  def cpuSeconds(op: Int, names: String*): Double =
    done.iterator.filter(s => s.op == op && names.contains(s.name)).map(_.cpuNs / 1e9).sum
}

object Tracer {
  private val os = java.lang.management.ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** Linux `stat` files of this JVM's JIT compiler threads. `run.sh` starts the
    * JVM with `-XX:-UseDynamicNumberOfCompilerThreads`, so every compiler thread
    * exists from start-up and none exits with its CPU time uncounted.
    */
  private lazy val compilerStats: Seq[Path] = {
    val tasks = Files.list(Paths.get("/proc/self/task"))
    try tasks.iterator.asScala.toSeq.filter { t =>
      val comm = new String(Files.readAllBytes(t.resolve("comm")), StandardCharsets.UTF_8)
      comm.startsWith("C1 CompilerThre") || comm.startsWith("C2 CompilerThre")
    }.map(_.resolve("stat"))
    finally tasks.close()
  }

  /** Kernel clock ticks per second (`USER_HZ`), the unit of `stat`'s CPU times. */
  private val TickNs = 10000000L

  /** CPU time the JIT compiler threads have used so far. */
  private def compilerCpuNs: Long = compilerStats.map { p =>
    val stat = new String(Files.readAllBytes(p), StandardCharsets.UTF_8)
    val fields = stat.substring(stat.lastIndexOf(')') + 2).split(' ')
    fields(11).toLong + fields(12).toLong // utime, stime
  }.sum * TickNs

  /** CPU time used so far by every thread of this process but the JIT
    * compilers: the program's work, without the compiling of its code, which
    * a cold JVM spends on every operation.
    */
  def processCpuNs: Long = os.getProcessCpuTime - compilerCpuNs

  /** Span duration minus the part of its interval that its child spans cover. */
  def selfSeconds(spans: Seq[Span]): Map[Int, Double] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val covered = children.getOrElse(s.id, Seq.empty).map(c => (c.startNs, c.endNs)).sortBy(_._1)
        .foldLeft((0L, Long.MinValue)) { case ((sum, end), (a, b)) =>
          val from = math.max(a, end)
          if (b > from) (sum + (b - from), b) else (sum, end)
        }._1
      s.id -> (s.endNs - s.startNs - covered) / 1e9
    }.toMap
  }
}
