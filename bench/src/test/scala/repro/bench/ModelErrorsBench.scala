package repro.bench

import repro.SparkSpec

/** Reproduces §8.4: finding novel ML-prediction errors after excluding
  * everything the ad-hoc MAs (appear / flicker / multibox) already flag.
  *
  * Paper: Fixy P@10 = 82% vs uncertainty sampling 42%; Fixy surfaces errors
  * with model confidence as high as 95% (which uncertainty sampling, by
  * construction, never samples).
  */
class ModelErrorsBench extends SparkSpec {

  private lazy val result = ExperimentsRun.results.modelErrors

  test("model errors: print paper vs measured") {
    println(f"%n=== §8.4 novel model-prediction errors ===")
    println(f"Fixy P@10:        paper 82%% -> measured ${result.fixyP10 * 100}%.0f%%")
    println(f"Uncertainty P@10: paper 42%% -> measured ${result.uncertaintyP10 * 100}%.0f%%")
    println(f"max conf among Fixy hits: paper ~95%% -> measured ${result.maxConfAmongFixyHits * 100}%.0f%%%n")
  }
  test("shape: Fixy clearly beats uncertainty sampling (paper: 82% vs 42%)") {
    assert(result.fixyP10 > result.uncertaintyP10 * 1.4,
      s"fixy=${result.fixyP10} uncertainty=${result.uncertaintyP10}")
  }
  test("shape: Fixy's precision@10 is high in absolute terms (paper: 82%)") {
    assert(result.fixyP10 >= 0.6, s"fixy=${result.fixyP10}")
  }
  test("shape: Fixy finds high-confidence errors that uncertainty sampling misses (paper: up to 95%)") {
    assert(result.maxConfAmongFixyHits >= 0.85, s"maxConf=${result.maxConfAmongFixyHits}")
  }
}
