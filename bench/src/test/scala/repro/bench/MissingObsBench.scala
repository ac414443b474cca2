package repro.bench

import repro.SparkSpec

/** Reproduces §8.3: a single consistent missing observation injected inside a
  * human-labeled track is ranked at the top of the candidate bundles, ahead of
  * the distorted-box distractor bundles (the Fig. 7 analogue).
  */
class MissingObsBench extends SparkSpec {

  private lazy val result = ExperimentsRun.results.missingObs

  test("missing observation: print paper vs measured") {
    println(f"%n=== §8.3 missing observation within a track ===")
    println(s"paper:    the missing observation ranked at the top")
    println(s"measured: rank ${result.goodRank} of ${result.nCandidates} candidate bundles")
    println()
    assert(result.nCandidates > 1, "need distractor candidates for the rank to mean anything")
  }
  test("shape: the injected missing observation ranks first") {
    assert(result.goodRank == 1L, s"rank=${result.goodRank} of ${result.nCandidates}")
  }
}
