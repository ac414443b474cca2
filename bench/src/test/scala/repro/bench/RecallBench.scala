package repro.bench

import repro.SparkSpec

/** Reproduces the §8.2 recall experiment: the exhaustively audited internal
  * scene contains 24 missing tracks; Fixy found 18 (75%) within the top-10
  * ranked errors per class. The misses are the hard cases: short-visibility
  * (occluded, ≤ 3 frames — like the motorcycle of Fig. 4 before auditing) and
  * far objects with flickering detections.
  */
class RecallBench extends SparkSpec {

  private lazy val result = ExperimentsRun.results.recall

  test("recall: print paper vs measured") {
    println(f"%n=== §8.2 recall on the audited scene ===")
    println(f"paper:    18/24 = 75%%")
    println(f"measured: ${result.found}/${result.total} = ${result.recall * 100}%.0f%%%n")
    assert(result.total == 24)
  }
  test("shape: recall lands near the paper's 75% (not all, not few)") {
    assert(result.recall >= 0.55, s"recall=${result.recall}")
    assert(result.recall <= 0.95, s"recall=${result.recall} — the short-visibility/far handicaps should cost some misses")
  }
}
