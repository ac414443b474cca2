package repro.core

import org.scalacheck.{Gen, Properties}
import org.scalacheck.Prop.forAll

/** ScalaCheck property suites over the pure substrate. */
object GeometryProps extends Properties("Geometry") {
  private val genBox: Gen[Box] = for {
    x <- Gen.choose(-100.0, 100.0)
    y <- Gen.choose(-100.0, 100.0)
    l <- Gen.choose(0.1, 20.0)
    w <- Gen.choose(0.1, 20.0)
  } yield Box(x, y, l, w)

  property("iou within [0,1]") = forAll(genBox, genBox) { (a, b) =>
    val i = Geometry.iou(a, b)
    i >= 0.0 && i <= 1.0
  }
  property("iou symmetric") = forAll(genBox, genBox) { (a, b) =>
    math.abs(Geometry.iou(a, b) - Geometry.iou(b, a)) < 1e-12
  }
  property("self iou is 1") = forAll(genBox) { b =>
    math.abs(Geometry.iou(b, b) - 1.0) < 1e-9
  }
  property("iou shrinks or stays when boxes move apart along x") = forAll(genBox, Gen.choose(0.0, 5.0)) { (b, d) =>
    Geometry.iou(b, b.copy(x = b.x + d + 1)) <= Geometry.iou(b, b.copy(x = b.x + d)) + 1e-12
  }
  property("centerDistance is a metric on centers (triangle)") =
    forAll(genBox, genBox, genBox) { (a, b, c) =>
      Geometry.centerDistance(a, c) <=
        Geometry.centerDistance(a, b) + Geometry.centerDistance(b, c) + 1e-9
    }
  property("overlap1d bounded by smaller extent") =
    forAll(Gen.choose(-10.0, 10.0), Gen.choose(0.1, 10.0), Gen.choose(-10.0, 10.0), Gen.choose(0.1, 10.0)) {
      (c1, e1, c2, e2) => Geometry.overlap1d(c1, e1, c2, e2) <= math.min(e1, e2) + 1e-12
    }
}

object KdeProps extends Properties("Kde") {
  private val genValues: Gen[List[Double]] =
    Gen.nonEmptyListOf(Gen.choose(-50.0, 50.0))

  property("likelihood within [0,1] everywhere") = forAll(genValues, Gen.choose(-200.0, 200.0)) { (vs, x) =>
    val l = Kde.fit(vs).likelihood(x)
    l >= 0.0 && l <= 1.0
  }
  property("bandwidth positive") = forAll(genValues) { vs =>
    Kde.silvermanBandwidth(vs) > 0
  }
  property("grid pdf nonnegative") = forAll(genValues, Gen.choose(-200.0, 200.0)) { (vs, x) =>
    Kde.fit(vs).pdf(x) >= 0.0
  }
  property("fit deterministic") = forAll(genValues) { vs =>
    val (a, b) = (Kde.fit(vs), Kde.fit(vs))
    a.bandwidth == b.bandwidth && a.maxDensity == b.maxDensity
  }
  property("a sample point has nonzero likelihood") = forAll(genValues) { vs =>
    Kde.fit(vs).likelihood(vs.head) > 0.0
  }
  property("translation equivariance") = forAll(genValues, Gen.choose(-20.0, 20.0)) { (vs, t) =>
    val a = Kde.fit(vs)
    val b = Kde.fit(vs.map(_ + t))
    math.abs(a.likelihood(vs.head) - b.likelihood(vs.head + t)) < 1e-6
  }
}

object UnionFindProps extends Properties("UnionFind") {
  private val genOps: Gen[(Int, List[(Int, Int)])] = for {
    n <- Gen.choose(1, 50)
    k <- Gen.choose(0, 100)
    ops <- Gen.listOfN(k, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
  } yield (n, ops)

  property("union is reflexive-transitive-symmetric closure") = forAll(genOps) { case (n, ops) =>
    val uf = new UnionFind(n)
    ops.foreach { case (a, b) => uf.union(a, b) }
    // reference: iterate closure over pairs
    val ref = Array.tabulate(n)(identity)
    ops.foreach { case (a, b) =>
      val (ra, rb) = (ref(a), ref(b))
      if (ra != rb) ref.indices.foreach(i => if (ref(i) == rb) ref(i) = ra)
    }
    (0 until n).forall(i => (0 until n).forall(j => (uf.find(i) == uf.find(j)) == (ref(i) == ref(j))))
  }
  property("componentIds dense from 0") = forAll(genOps) { case (n, ops) =>
    val uf = new UnionFind(n)
    ops.foreach { case (a, b) => uf.union(a, b) }
    val ids = uf.componentIds
    val distinct = ids.toSet
    distinct == (0 until distinct.size).toSet
  }
  property("componentIds number components by first element, as a map from root would") = forAll(genOps) {
    case (n, ops) =>
      val uf = new UnionFind(n)
      ops.foreach { case (a, b) => uf.union(a, b) }
      val seen = scala.collection.mutable.HashMap.empty[Int, Int]
      uf.componentIds.toSeq == (0 until n).map(i => seen.getOrElseUpdate(uf.find(i), seen.size))
  }
  property("successful unions equal n minus component count") = forAll(genOps) { case (n, ops) =>
    val uf = new UnionFind(n)
    val merges = ops.count { case (a, b) => uf.union(a, b) }
    merges == n - uf.componentIds.toSet.size
  }
}
