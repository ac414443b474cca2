package fixybench

import org.scalatest.funsuite.AnyFunSuite

class TracerSpec extends AnyFunSuite {
  test("self time is the span minus the union of its children") {
    val spans = Seq(
      Span(0, -1, 0, "op", 0L, 10000000000L, 0L),
      Span(1, 0, 0, "a", 1000000000L, 4000000000L, 0L),
      Span(2, 0, 0, "b", 3000000000L, 5000000000L, 0L),
      Span(3, 1, 0, "c", 1000000000L, 2000000000L, 0L),
    )
    val self = Tracer.selfSeconds(spans)
    assert(math.abs(self(0) - 6.0) < 1e-9)
    assert(math.abs(self(1) - 2.0) < 1e-9)
    assert(math.abs(self(2) - 2.0) < 1e-9)
    assert(math.abs(self(3) - 1.0) < 1e-9)
  }
}
