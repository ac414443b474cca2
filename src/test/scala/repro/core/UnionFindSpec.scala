package repro.core

import org.scalatest.funsuite.AnyFunSuite

class UnionFindSpec extends AnyFunSuite {

  test("fresh structure has every element in its own component") {
    val uf = new UnionFind(5)
    for (i <- 0 until 5; j <- 0 until 5 if i != j) assert(uf.find(i) != uf.find(j))
  }
  test("union connects two elements") {
    val uf = new UnionFind(3)
    uf.union(0, 2)
    assert(uf.find(0) == uf.find(2) && uf.find(0) != uf.find(1))
  }
  test("union returns true only for new merges") {
    val uf = new UnionFind(3)
    assert(uf.union(0, 1))
    assert(!uf.union(0, 1))
    assert(!uf.union(1, 0))
  }
  test("connectivity is transitive") {
    val uf = new UnionFind(4)
    uf.union(0, 1); uf.union(1, 2)
    assert(uf.find(0) == uf.find(2))
    assert(uf.find(0) != uf.find(3))
  }
  test("componentIds are dense and consistent") {
    val uf = new UnionFind(6)
    uf.union(0, 3); uf.union(1, 4)
    val ids = uf.componentIds
    assert(ids(0) == ids(3))
    assert(ids(1) == ids(4))
    assert(ids.toSet == (0 until ids.toSet.size).toSet)
    assert(ids.toSet.size == 4)
  }
  test("componentIds stable in element order (first occurrence gets lowest id)") {
    val uf = new UnionFind(4)
    uf.union(2, 3)
    val ids = uf.componentIds
    assert(ids(0) == 0 && ids(1) == 1 && ids(2) == 2 && ids(3) == 2)
  }
  test("chain of unions collapses to one component") {
    val n = 1000
    val uf = new UnionFind(n)
    for (i <- 1 until n) uf.union(i - 1, i)
    val ids = uf.componentIds
    assert(ids.toSet.size == 1)
  }
  test("random union sequence matches brute-force reference") {
    val rng = new java.util.Random(7)
    val n = 60
    val uf = new UnionFind(n)
    val ref = Array.tabulate(n)(identity) // ref(i) = representative by full relabel
    for (_ <- 1 to 150) {
      val a = rng.nextInt(n); val b = rng.nextInt(n)
      uf.union(a, b)
      val (ra, rb) = (ref(a), ref(b))
      for (i <- 0 until n) if (ref(i) == rb) ref(i) = ra
    }
    for (i <- 0 until n; j <- 0 until n)
      assert((uf.find(i) == uf.find(j)) == (ref(i) == ref(j)), s"mismatch at ($i,$j)")
  }
  test("size-zero structure is legal") {
    val uf = new UnionFind(0)
    assert(uf.componentIds.isEmpty)
  }
  test("negative size rejected") {
    assertThrows[IllegalArgumentException](new UnionFind(-1))
  }
  test("singleton find is identity") {
    val uf = new UnionFind(1)
    assert(uf.find(0) == 0)
  }
}
