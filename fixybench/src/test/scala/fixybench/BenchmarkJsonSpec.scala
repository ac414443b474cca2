package fixybench

import java.nio.file.{Files, Paths}

import org.json4s._
import org.json4s.jackson.JsonMethods.parse
import org.scalatest.funsuite.AnyFunSuite

/** BENCHMARK.json names exactly the metrics and workloads the harness reports. */
class BenchmarkJsonSpec extends AnyFunSuite {
  private implicit val formats: Formats = DefaultFormats
  private lazy val json = parse(new String(Files.readAllBytes(Paths.get("..", "BENCHMARK.json")), "UTF-8"))
  private def names(key: String): Seq[String] = (json \ key).children.map(m => (m \ "name").extract[String])

  test("end-to-end metrics are the untraced run's") {
    assert(names("end_to_end") == Bench.EndToEnd)
  }
  test("per-layer metrics are the traced run's") {
    assert(names("per_layer").sorted == Bench.PerLayer.sorted)
    assert(Bench.PerLayer.distinct.size == Bench.PerLayer.size)
  }
  test("every declared workload exists") {
    assert(names("workloads").forall(Workloads.Names.contains))
  }
}
