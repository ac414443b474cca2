package repro.core

import org.scalatest.funsuite.AnyFunSuite

class AofSpec extends AnyFunSuite {
  test("identity returns its input") {
    for (p <- Seq(0.0, 0.3, 1.0)) assert(Aof.Identity(p) === p)
  }
  test("invert returns 1 - p") {
    assert(Aof.Invert(0.0) === 1.0)
    assert(Aof.Invert(1.0) === 0.0)
    assert(math.abs(Aof.Invert(0.3) - 0.7) < 1e-12)
  }
  test("invert is its own inverse") {
    for (p <- Seq(0.1, 0.5, 0.9)) assert(math.abs(Aof.Invert(Aof.Invert(p)) - p) < 1e-12)
  }
  test("aofs are serializable") {
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(Aof.Invert)
    assert(bos.size() > 0)
  }
}
