package fixybench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {
  test("median of odd and even sample counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("the tail percentile is the highest with ten or more samples beyond it") {
    assert(Stats.tailPercentile(19).isEmpty)
    assert(Stats.tailPercentile(20).contains(50.0))
    assert(Stats.tailPercentile(39).contains(50.0))
    assert(Stats.tailPercentile(40).contains(75.0))
    assert(Stats.tailPercentile(99).contains(75.0))
    assert(Stats.tailPercentile(100).contains(90.0))
    assert(Stats.tailPercentile(200).contains(95.0))
    assert(Stats.tailPercentile(1000).contains(99.0))
    assert(Stats.tailPercentile(10000).contains(99.9))
  }

  test("samples beyond a nearest-rank percentile") {
    assert(Stats.beyond(40, 75.0) == 10)
    assert(Stats.beyond(39, 75.0) == 9)
    assert(Stats.beyond(100, 90.0) == 10)
    assert(Stats.beyond(100, 95.0) == 5)
  }

  test("summarize reports median, tail value, its percentile and the sample count") {
    val xs = scala.util.Random.shuffle((1 to 40).map(_.toDouble))
    assert(Stats.summarize(xs) == Stats.Summary(median = 20.5, tail = 30.0, tailPct = 75.0, n = 40))
    val s = Stats.summarize((1 to 100).map(_.toDouble))
    assert(s.tail == 90.0 && s.tailPct == 90.0 && s.n == 100)
    assert(xs.count(_ > Stats.summarize(xs).tail) == 10)
  }

  test("too few samples for any percentile is an error") {
    assertThrows[IllegalArgumentException](Stats.summarize((1 to 19).map(_.toDouble)))
  }
}
