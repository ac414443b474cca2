package fixybench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.json4s._
import org.json4s.jackson.JsonMethods.{compact, render}

/** Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Prints each metric as `name value unit`, then the path of the run's full
  * results (metrics, failures and spans), then one JSON line with the
  * end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
  */
object Main {
  def parse(args: Array[String]): Bench.Options = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace")
    require(unknown.isEmpty, s"unknown options: ${unknown.mkString(", ")}")
    val trace = kv.getOrElse("trace", "0")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    val o = Bench.Options(
      workload = kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required")),
      seed = kv.getOrElse("seed", "0").toLong,
      seconds = kv.getOrElse("seconds", "10").toInt,
      trace = trace == "1")
    require(o.seconds >= 1, "--seconds must be at least 1")
    Workloads(o.workload, o.seed)
    o
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val r = Bench.run(o)

    r.metrics.foreach(m => println(f"${m.name}%-40s ${m.value}%14.6f ${m.unit}"))
    r.failures.foreach(f => Console.err.println(s"FAILED: $f"))

    def metrics(ms: Seq[Metric]): JObject =
      JObject(ms.map(m => m.name -> JObject("value" -> JDouble(m.value), "unit" -> JString(m.unit))): _*)
    val selfS = Tracer.selfSeconds(r.spans)
    val t0 = r.spans.map(_.startNs).minOption.getOrElse(0L)
    val full = JObject(
      "workload" -> JString(o.workload), "seed" -> JLong(o.seed), "seconds" -> JInt(o.seconds),
      "trace" -> JBool(o.trace), "attempted" -> JInt(r.attempted), "failed" -> JInt(r.failed),
      "failures" -> JArray(r.failures.map(JString(_)).toList),
      "metrics" -> metrics(r.metrics),
      "spans" -> JArray(r.spans.sortBy(_.id).map(s => JObject(
        "id" -> JInt(s.id), "parent" -> JInt(s.parent), "op" -> JInt(s.op), "name" -> JString(s.name),
        "start_s" -> JDouble((s.startNs - t0) / 1e9), "end_s" -> JDouble((s.endNs - t0) / 1e9),
        "self_s" -> JDouble(selfS(s.id)))).toList),
    )
    val dir = Paths.get(sys.props.getOrElse("fixybench.dir", "fixybench"), "results")
    Files.createDirectories(dir)
    val path = dir.resolve(s"${o.workload}-seed${o.seed}-trace${if (o.trace) 1 else 0}.json")
    Files.write(path, compact(render(full)).getBytes(StandardCharsets.UTF_8))
    println(s"results: $path")

    val byName = r.metrics.map(m => m.name -> m).toMap
    val declared = if (o.trace) Bench.PerLayer else Bench.EndToEnd
    val missing = declared.filterNot(byName.contains)
    require(missing.isEmpty, s"metrics not measured: ${missing.mkString(", ")}")
    println(compact(render(JObject(
      "correct" -> JBool(r.failed == 0),
      "attempted" -> JInt(r.attempted),
      "failed" -> JInt(r.failed),
      "metrics" -> metrics(declared.map(byName)),
    ))))
  }
}
