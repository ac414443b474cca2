package fixybench

import org.scalatest.funsuite.AnyFunSuite

class ChecksSpec extends AnyFunSuite {
  private val good = Vector(
    Proposal(scene = 1, rank = 1, id = 10, score = -1.0, nObs = 8, nHuman = 0),
    Proposal(scene = 1, rank = 2, id = 11, score = -2.0, nObs = 5, nHuman = 0),
    Proposal(scene = 1, rank = 3, id = 12, score = -2.0, nObs = 3, nHuman = 0),
    Proposal(scene = 2, rank = 1, id = 20, score = -0.5, nObs = 9, nHuman = 0),
  )

  test("a well-formed ranking passes every check") {
    assert(Checks.ranking("l", good, global = false).isEmpty)
    assert(Checks.missingTrackFilters("l", good, minTrackObs = 3).isEmpty)
    assert(Checks.notFlagged("l", good, Set(99L)).isEmpty)
    assert(Checks.matchesReference("l", good, good.map(p => p.id -> (p.score + 1e-7)).toMap).isEmpty)
    assert(Checks.sameAsFirst(Map("l" -> good), Map("l" -> good)).isEmpty)
  }

  test("swapped ranks are reported") {
    val swapped = good.updated(0, good(0).copy(rank = 2)).updated(1, good(1).copy(rank = 1))
    assert(Checks.ranking("l", swapped, global = false).nonEmpty)
  }

  test("ranks that skip a number or do not start at 1 are reported") {
    assert(Checks.ranking("l", good.updated(2, good(2).copy(rank = 4)), global = false).nonEmpty)
    assert(Checks.ranking("l", good.map(p => p.copy(rank = p.rank + 1)), global = false).nonEmpty)
  }

  test("global rankings are contiguous over all scenes") {
    assert(Checks.ranking("l", good, global = true).nonEmpty)
    val global = good.sortBy(-_.score).zipWithIndex.map { case (p, i) => p.copy(rank = i + 1) }
    assert(Checks.ranking("l", global, global = true).isEmpty)
  }

  test("ties must go to the smaller id") {
    val tieFlipped = good.updated(1, good(1).copy(id = 13))
    assert(Checks.ranking("l", tieFlipped, global = false).nonEmpty)
  }

  test("non-finite scores are reported") {
    assert(Checks.ranking("l", good.updated(3, good(3).copy(score = Double.NaN)), global = false).nonEmpty)
  }

  test("a missing-track proposal with a human observation or too few observations is reported") {
    assert(Checks.missingTrackFilters("l", good.updated(1, good(1).copy(nHuman = 2)), 3).nonEmpty)
    assert(Checks.missingTrackFilters("l", good.updated(1, good(1).copy(nObs = 2)), 3).nonEmpty)
  }

  test("a model-error proposal the assertions flagged is reported") {
    assert(Checks.notFlagged("l", good, Set(11L)).nonEmpty)
  }

  test("a score off its reference by more than 1e-6, or without one, is reported") {
    val ref = good.map(p => p.id -> p.score).toMap
    assert(Checks.matchesReference("l", good, ref.updated(12L, -2.0 + 2e-6)).nonEmpty)
    assert(Checks.matchesReference("l", good, ref - 12L).nonEmpty)
  }

  test("a top-k list that changed since the first operation is reported") {
    assert(Checks.sameAsFirst(Map("l" -> good), Map("l" -> good.updated(0, good(0).copy(id = 9)))).nonEmpty)
    assert(Checks.sameAsFirst(Map("l" -> good), Map("l" -> good.take(3))).nonEmpty)
    assert(Checks.sameAsFirst(Map("l" -> good), Map("l" -> good, "m" -> good)).nonEmpty)
  }
}
