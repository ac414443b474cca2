package fixybench

import org.scalatest.funsuite.AnyFunSuite

/** At the default seed the benchmark's quality figures equal EXPERIMENTS.md. */
class CrossCheckSpec extends AnyFunSuite {
  private def quality(workload: String): Map[String, Double] = {
    val r = Bench.run(Bench.Options(workload, seed = 0, seconds = 1, trace = false))
    assert(r.failed == 0, r.failures)
    r.metrics.map(m => m.name -> m.value).toMap
  }
  private def pct(x: Double): Long = math.round(x * 100)

  test("lyft: Table 3 Fixy 73/68/66%, MA(conf) P@10 32%, scene coverage 100%") {
    val q = quality("lyft")
    assert((pct(q("fixy_p10")), pct(q("fixy_p5")), pct(q("fixy_p1"))) == ((73, 68, 66)))
    assert(pct(q("ma_conf_p10")) == 32)
    assert(q("scene_coverage") == 1.0)
  }

  test("internal: Table 3 audit scene, §8.2 recall, §8.3 rank and §8.4 precision") {
    val q = quality("internal")
    assert((pct(q("fixy_p10")), pct(q("fixy_p5")), pct(q("fixy_p1"))) == ((90, 80, 100)))
    assert(pct(q("ma_conf_p10")) == 70)
    assert(q("recall") == 17.0 / 24)
    assert(q("missing_obs_rank") == 1.0 && q("missing_obs_candidates") == 14.0)
    assert(q("model_error_p10") == 1.0 && q("uncertainty_p10") == 0.5)
    assert(pct(q("model_error_max_conf")) == 97)
  }
}
