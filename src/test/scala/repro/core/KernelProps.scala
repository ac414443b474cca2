package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite

import repro.perception.PerceptionData

/** Differential properties: [[Association.assignScene]] and
  * [[Loa.fromTracked]] return exactly what their first versions in
  * [[KernelReference]] return — the same `TrackedObs` sequence and the same
  * `Scene` structure, in the same order.
  *
  * Coordinates and sizes lie on a dyadic grid, so box ends, centroids and
  * distances are computed exactly: boxes coincide, touch exactly in x, tie in
  * IOU and sit exactly on a distance gate, which are the cases where a
  * skipped comparison could change an id.
  */
object KernelProps extends Properties("Kernels") {

  /** Both kernels agree with their references on `obs`, and the rebuild
    * agrees on the association's rows in `order`'s permutation of them.
    */
  private def agree(obs: Seq[Obs], cfg: Association.Config, order: Seq[Int] => Seq[Int] = identity): Prop = {
    val out = Association.assignScene(obs, cfg)
    val ref = KernelReference.assignScene(obs, cfg)
    val rows = order(out.indices).map(out)
    (out == ref) :| "assignScene differs" &&
      (Loa.fromTracked(rows) == KernelReference.fromTracked(rows)) :| "fromTracked differs"
  }

  private def shuffler(seed: Long): Seq[Int] => Seq[Int] = new scala.util.Random(seed).shuffle(_)

  private val genConfig: Gen[Association.Config] = for {
    bundleIou <- Gen.oneOf(0.25, 0.5, 1.0 / 3, 1.0)
    trackIou <- Gen.oneOf(0.1, 0.25, 0.5, 1.0)
    maxGap <- Gen.choose(1, 3)
    factor <- Gen.oneOf(0.0, 0.5, 0.8, 1.0)
    cap <- Gen.oneOf(0.5, 1.0, 2.8, 64.0)
  } yield Association.Config(bundleIou, trackIou, maxGap, factor, cap)

  /** An observation on the dyadic grid, at one of `frames`. */
  private def genObs(frames: Gen[Int]): Gen[Obs] = for {
    frame <- frames
    source <- Gen.oneOf(Sources.Human, Sources.Model)
    trueId <- Gen.choose(-2L, 3L)
    cls <- Gen.oneOf(Classes.All)
    x <- Gen.frequency(9 -> Gen.choose(-12, 12).map(_ * 0.25), 1 -> Gen.const(-0.0))
    y <- Gen.choose(-6, 6).map(_ * 0.25)
    l <- Gen.oneOf(0.5, 1.0, 1.5, 2.0, 4.5)
    w <- Gen.oneOf(0.5, 1.0, 2.0)
    conf <- Gen.oneOf(0.0, 0.5, 1.0)
  } yield Obs(0, frame, source, trueId, cls, x, y, 0.0, l, w, 1.5, conf)

  /** A random scene over frames 0–9, with some rows repeated: exact copies
    * and copies that differ only outside the sort key (z, class, confidence).
    */
  private val genScene: Gen[Seq[Obs]] = for {
    base <- Gen.choose(0, 60).flatMap(Gen.listOfN(_, genObs(Gen.choose(0, 9))))
    copies <- Gen.someOf(base)
    zs <- Gen.listOfN(copies.size, Gen.oneOf(0.0, 1.0))
  } yield base ++ copies.zip(zs).map { case (o, z) => o.copy(z = z, cls = Classes.Truck, conf = 1.0 - o.conf) }

  property("assignScene and fromTracked match the reference on random scenes") =
    forAll(genScene, genConfig)((obs, cfg) => agree(obs, cfg))

  property("assignScene and fromTracked match the reference on shuffled input rows") = forAll(genScene, genConfig, Gen.long) { (obs, cfg, seed) =>
    agree(shuffler(seed)(obs.indices).map(obs), cfg, shuffler(seed + 1))
  }

  property("assignScene and fromTracked match the reference on coincident boxes") = forAll(genObs(Gen.choose(0, 4)), Gen.choose(1, 12), genConfig, Gen.long) {
    (o, n, cfg, seed) =>
      val rng = new scala.util.Random(seed)
      val obs = Seq.fill(n)(o.copy(frame = rng.nextInt(5), source = if (rng.nextBoolean()) Sources.Human else Sources.Model,
        trueId = rng.nextInt(3).toLong))
      agree(obs, cfg)
  }

  property("assignScene and fromTracked match the reference on boxes whose x-extents touch exactly") =
    forAll(Gen.nonEmptyListOf(Gen.zip(Gen.oneOf(0.5, 1.0, 1.5, 2.0, 4.5), Gen.choose(0, 3))), genConfig) { (boxes, cfg) =>
      // each box starts where the previous one ends, in the same or a later frame
      val his = boxes.scanLeft(0.0) { case (hi, (l, _)) => hi + l }
      val obs = boxes.zip(his).zipWithIndex.map { case (((l, frame), lo), i) =>
        Obs(0, frame, Sources.Model, i.toLong, Classes.Car, lo + l / 2, 0.0, 0.0, l, 1.0, 1.5, 0.5)
      }
      Prop.all(agree(obs, cfg), agree(obs.map(o => o.copy(frame = 0)), cfg))
    }

  property("assignScene and fromTracked match the reference on equal-IOU predecessor ties") =
    forAll(Gen.oneOf(0.25, 0.5, 1.0), Gen.oneOf(0.5, 1.0, 2.0), Gen.choose(1, 3), genConfig) { (d, l, gap, cfg) =>
      // one bundle, then two predecessors, mirror images of each other about it
      val at = (frame: Int, x: Double, id: Long) => Obs(0, frame, Sources.Model, id, Classes.Car, x, 0.0, 0.0, l, l, 1.5, 0.5)
      agree(Seq(at(0, -d, 1), at(0, d, 2), at(gap, 0.0, 3), at(gap, 0.0, 4).copy(y = 2 * l)), cfg)
    }

  property("assignScene and fromTracked match the reference on rows at the distance-gate boundary") =
    forAll(Gen.oneOf(0.5, 1.0), Gen.oneOf(0.5, 1.0, 64.0), Gen.oneOf(0.5, 1.0, 2.0), Gen.choose(1, 3),
      Gen.oneOf("at", "below", "beyond"), Gen.oneOf(true, false)) { (factor, cap, size, gap, where, alongX) =>
      val cfg = Association.Config(trackIou = 1.0, maxGap = 3, distGateFactor = factor, distGateCap = cap)
      val gate = math.min(factor * size, cap) * math.min(gap, 2)
      val d = where match {
        case "at"    => gate
        case "below" => math.nextDown(gate)
        case _       => math.nextUp(gate)
      }
      val (dx, dy) = if (alongX) (d, 0.0) else (0.0, d)
      val at = (frame: Int, x: Double, y: Double, id: Long) =>
        Obs(0, frame, Sources.Model, id, Classes.Car, x, y, 0.0, size, size, 1.5, 0.5)
      // two predecessors at the same distance d, on either side of the bundle
      agree(Seq(at(0, dx, dy, 1), at(0, -dx, -dy, 2), at(gap, 0.0, 0.0, 3)), cfg)
    }

  property("assignScene and fromTracked match the reference across gaps of maxGap and maxGap + 1") =
    forAll(genConfig, Gen.listOfN(6, Gen.oneOf(0, 1)), Gen.oneOf(0.0, 0.25, 3.0)) { (cfg, extra, dx) =>
      // frame steps of maxGap or maxGap + 1
      val frames = extra.scanLeft(0)((f, e) => f + cfg.maxGap + e)
      val obs = frames.zipWithIndex.map { case (f, i) =>
        Obs(0, f, Sources.Model, 1, Classes.Car, i * dx, 0.0, 0.0, 4.5, 2.0, 1.5, 0.5)
      }
      agree(obs, cfg)
    }

  property("fromTracked matches the reference over several scenes") =
    forAll(Gen.listOfN(3, genScene), genConfig, Gen.long) { (scenes, cfg, seed) =>
      val rows = scenes.zipWithIndex.flatMap { case (s, i) =>
        Association.assignScene(s.map(_.copy(scene = i.toLong)), cfg)
      }
      val shuffled = shuffler(seed)(rows.indices).map(rows)
      Loa.fromTracked(shuffled) == KernelReference.fromTracked(shuffled)
    }
}

/** The kernels agree with their references on every generated preset: each
  * scene whole, its human rows alone (what learning associates) and its
  * model rows alone (what §8.4 associates).
  */
class KernelPresetSpec extends AnyFunSuite {
  import PerceptionData._

  for (spec <- Seq(lyftTrain, lyftEval, internalAudit, internalTrain, missingObsSim, modelErrorSim)) {
    test(s"assignScene and fromTracked match the reference on every ${spec.name} scene") {
      for (i <- 0 until spec.nScenes) {
        val obs = genScene(spec, i.toLong)._2
        for ((part, rows) <- Seq("all" -> obs, "human" -> obs.filter(_.source == Sources.Human),
            "model" -> obs.filter(_.source == Sources.Model))) {
          val out = Association.assignScene(rows)
          assert(out == KernelReference.assignScene(rows), s"assignScene, scene $i, $part rows")
          assert(Loa.fromTracked(out) == KernelReference.fromTracked(out), s"fromTracked, scene $i, $part rows")
        }
      }
    }
  }
}
