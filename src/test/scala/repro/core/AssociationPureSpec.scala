package repro.core

import org.scalatest.funsuite.AnyFunSuite

import TestObs.{movingTrack, obs}

class AssociationPureSpec extends AnyFunSuite {

  test("empty scene yields empty output") {
    assert(Association.assignScene(Seq.empty).isEmpty)
  }
  test("mixed-scene input is rejected") {
    assertThrows[IllegalArgumentException](
      Association.assignScene(Seq(obs(scene = 0), obs(scene = 1))))
  }
  test("a scene of SceneStride observations keeps its ids inside the scene's range") {
    val n = Association.SceneStride.toInt
    val out = Association.assignScene((0 until n).map(f => obs(scene = 1, frame = f)))
    assert(out.map(_.bundleId).max == 2 * Association.SceneStride - 1)
  }
  test("a scene of more than SceneStride observations is rejected") {
    val e = intercept[IllegalArgumentException](
      Association.assignScene(Seq.fill(Association.SceneStride.toInt + 1)(obs())))
    assert(e.getMessage.contains("SceneStride"))
  }

  // --- input validation -----------------------------------------------------

  /** `bad` is rejected next to a valid observation, naming `field` and where. */
  private def rejects(bad: Obs, field: String): Unit = {
    val e = intercept[IllegalArgumentException](Association.assignScene(Seq(obs(scene = 2), bad)))
    assert(e.getMessage.contains(s"$field = ") && e.getMessage.contains(s"scene 2, frame ${bad.frame}"), e.getMessage)
  }
  private val nonFinite = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)

  test("non-finite coordinates are rejected") {
    for (v <- nonFinite) {
      rejects(obs(scene = 2, frame = 4, x = v), "x")
      rejects(obs(scene = 2, frame = 4, y = v), "y")
      rejects(obs(scene = 2, frame = 4).copy(z = v), "z")
    }
  }
  test("box dimensions that are not finite and positive are rejected") {
    for (v <- 0.0 +: -1.0 +: nonFinite) {
      rejects(obs(scene = 2, frame = 5, l = v), "l")
      rejects(obs(scene = 2, frame = 5, w = v), "w")
      rejects(obs(scene = 2, frame = 5, h = v), "h")
    }
  }
  test("conf that is NaN or outside [0, 1] is rejected") {
    for (v <- Seq(Double.NaN, -0.01, 1.01, Double.PositiveInfinity)) rejects(obs(scene = 2, frame = 6, conf = v), "conf")
  }
  test("an unknown source is rejected") {
    rejects(obs(scene = 2, frame = 7, source = "lidar"), "source")
  }
  test("conf of exactly 0 and 1 is accepted") {
    assert(Association.assignScene(Seq(obs(conf = 0.0), obs(x = 50, trueId = 2, conf = 1.0))).size == 2)
  }

  test("Config rejects each threshold outside its range, naming the field") {
    def rejects(field: String, make: => Association.Config): Unit = {
      val e = intercept[IllegalArgumentException](make)
      assert(e.getMessage.contains(s"Association.Config: $field = "), e.getMessage)
    }
    for (v <- Seq(0.0, -0.5, 1.5, Double.NaN)) {
      rejects("bundleIou", Association.Config(bundleIou = v))
      rejects("trackIou", Association.Config(trackIou = v))
    }
    for (v <- Seq(0, -1)) rejects("maxGap", Association.Config(maxGap = v))
    for (v <- Seq(-0.1, Double.NaN)) rejects("distGateFactor", Association.Config(distGateFactor = v))
    for (v <- Seq(0.0, -1.0, Double.NaN)) rejects("distGateCap", Association.Config(distGateCap = v))
  }
  test("Config accepts its range's edges") {
    assert(Association.Config(bundleIou = 1.0, trackIou = 1.0, maxGap = 1, distGateFactor = 0.0, distGateCap = 1e-9).maxGap == 1)
    assert(Association.Config(bundleIou = Double.MinPositiveValue, trackIou = Double.MinPositiveValue).bundleIou > 0)
  }

  test("a single observation forms its own bundle and track") {
    val out = Association.assignScene(Seq(obs()))
    assert(out.size == 1)
    assert(out.head.bundleId == 0L)
    assert(out.head.trackId == 0L)
  }
  test("ids are scene-prefixed") {
    val out = Association.assignScene(Seq(obs(scene = 3)))
    assert(out.head.bundleId == 3 * Association.SceneStride)
    assert(out.head.trackId == 3 * Association.SceneStride)
  }

  // --- bundling -------------------------------------------------------------

  test("overlapping same-frame observations bundle together") {
    val a = obs(source = Sources.Model, x = 0)
    val b = obs(source = Sources.Human, x = 0.1)
    val out = Association.assignScene(Seq(a, b))
    assert(out.map(_.bundleId).distinct.size == 1)
  }
  test("distant same-frame observations stay in separate bundles") {
    val out = Association.assignScene(Seq(obs(x = 0), obs(x = 50, trueId = 2)))
    assert(out.map(_.bundleId).distinct.size == 2)
  }
  test("bundling respects the IOU threshold boundary") {
    // half-offset unit squares: IOU = 1/3 < 0.5 ⇒ separate; near-identical ⇒ together
    val o1 = obs(l = 1, w = 1, x = 0)
    val far = obs(l = 1, w = 1, x = 0.5, trueId = 2)
    assert(Association.assignScene(Seq(o1, far)).map(_.bundleId).distinct.size == 2)
    val near = obs(l = 1, w = 1, x = 0.01, trueId = 2)
    assert(Association.assignScene(Seq(o1, near)).map(_.bundleId).distinct.size == 1)
  }
  test("bundling threshold is configurable") {
    val o1 = obs(l = 1, w = 1, x = 0)
    val o2 = obs(l = 1, w = 1, x = 0.5, trueId = 2)
    val out = Association.assignScene(Seq(o1, o2), Association.Config(bundleIou = 0.3))
    assert(out.map(_.bundleId).distinct.size == 1)
  }
  test("bundling is transitive through a chain") {
    // a–b overlap, b–c overlap, a–c do not: still one bundle (connected component)
    val a = obs(l = 2, w = 2, x = 0.0)
    val b = obs(l = 2, w = 2, x = 0.5, trueId = 2)
    val c = obs(l = 2, w = 2, x = 1.0, trueId = 3)
    val out = Association.assignScene(Seq(a, b, c))
    assert(out.map(_.bundleId).distinct.size == 1)
  }
  test("different frames never share a bundle") {
    val out = Association.assignScene(Seq(obs(frame = 0), obs(frame = 1)))
    assert(out.map(_.bundleId).distinct.size == 2)
  }

  // --- tracking -------------------------------------------------------------

  test("a slow-moving object forms a single track") {
    val out = Association.assignScene(movingTrack(10, dxPerFrame = 1.0))
    assert(out.map(_.trackId).distinct.size == 1)
    assert(out.map(_.bundleId).distinct.size == 10)
  }
  test("a stationary object forms a single track") {
    val out = Association.assignScene(movingTrack(10, dxPerFrame = 0.0))
    assert(out.map(_.trackId).distinct.size == 1)
  }
  test("teleporting observations split into separate tracks") {
    val out = Association.assignScene(movingTrack(5, dxPerFrame = 100.0))
    assert(out.map(_.trackId).distinct.size == 5)
  }
  test("two well-separated objects form two tracks") {
    val t1 = movingTrack(8, trueId = 1, y0 = 0)
    val t2 = movingTrack(8, trueId = 2, y0 = 50)
    val out = Association.assignScene(t1 ++ t2)
    assert(out.map(_.trackId).distinct.size == 2)
    val byTrue = out.groupBy(_.trueId).view.mapValues(_.map(_.trackId).distinct.size).toMap
    assert(byTrue == Map(1L -> 1, 2L -> 1))
  }
  test("a gap within maxGap keeps one track") {
    val t = movingTrack(8).filterNot(_.frame == 3) // one missing frame: delta 2
    val out = Association.assignScene(t, Association.Config(maxGap = 2))
    assert(out.map(_.trackId).distinct.size == 1)
  }
  test("a gap beyond maxGap splits the track") {
    val t = movingTrack(10).filterNot(o => o.frame == 3 || o.frame == 4) // delta 3
    val out = Association.assignScene(t, Association.Config(maxGap = 2))
    assert(out.map(_.trackId).distinct.size == 2)
  }
  test("default maxGap bridges a two-frame detector dropout") {
    val t = movingTrack(10).filterNot(o => o.frame == 4 || o.frame == 5) // delta 3
    val out = Association.assignScene(t)
    assert(out.map(_.trackId).distinct.size == 1)
  }
  test("human and model observations of one object share a track") {
    val human = movingTrack(6, source = Sources.Human, conf = 1.0)
    val model = movingTrack(6, source = Sources.Model).map(o => o.copy(x = o.x + 0.1))
    val out = Association.assignScene(human ++ model)
    assert(out.map(_.trackId).distinct.size == 1)
    // same-frame pairs bundle (IOU ≈ 0.95), so 6 bundles of 2
    assert(out.map(_.bundleId).distinct.size == 6)
  }
  test("tracking threshold is configurable") {
    val t = movingTrack(5, dxPerFrame = 3.0) // consecutive IOU ≈ 0.2
    val loose = Association.assignScene(t, Association.Config(trackIou = 0.1, distGateFactor = 0))
    val strict = Association.assignScene(t, Association.Config(trackIou = 0.5, distGateFactor = 0))
    assert(loose.map(_.trackId).distinct.size == 1)
    assert(strict.map(_.trackId).distinct.size == 5)
  }
  test("distance gating bridges cross-axis motion that IOU alone would drop") {
    // car box (4.5 long in x) moving 2.2 m/frame in y: per-frame IOU = 0, but
    // the displacement is inside the 0.8·max(l,w) gate
    val t = (0 until 6).map(f => obs(frame = f, x = 10, y = f * 2.2))
    val gated = Association.assignScene(t)
    val ungated = Association.assignScene(t, Association.Config(distGateFactor = 0))
    assert(gated.map(_.trackId).distinct.size == 1)
    assert(ungated.map(_.trackId).distinct.size == 6)
  }
  test("distance gating never bridges beyond the gate") {
    val t = movingTrack(5, dxPerFrame = 100.0)
    assert(Association.assignScene(t).map(_.trackId).distinct.size == 5)
  }
  test("output is deterministic regardless of input order") {
    val t = movingTrack(6) ++ movingTrack(6, trueId = 2, y0 = 30)
    val a = Association.assignScene(t)
    val b = Association.assignScene(scala.util.Random.shuffle(t.toList))
    assert(a == b)
  }
  test("output preserves every input observation exactly once") {
    val t = movingTrack(7) ++ movingTrack(4, trueId = 2, y0 = 40)
    val out = Association.assignScene(t)
    assert(out.size == t.size)
    assert(out.map(_.toObs).toSet == t.toSet)
  }
  test("bundle ids are consistent with frames (one frame per bundle)") {
    val out = Association.assignScene(movingTrack(10) ++ movingTrack(10, trueId = 2, y0 = 30))
    val framesPerBundle = out.groupBy(_.bundleId).values.map(_.map(_.frame).distinct.size)
    assert(framesPerBundle.forall(_ == 1))
  }
}
