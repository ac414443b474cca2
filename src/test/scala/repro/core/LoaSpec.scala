package repro.core

import org.scalatest.funsuite.AnyFunSuite

import TestObs.{movingTrack, obs}

class LoaSpec extends AnyFunSuite {
  private def scenes(os: Seq[Obs]) = Loa.fromTracked(Association.assignScene(os))

  test("fromTracked rebuilds one scene with one track") {
    val ss = scenes(movingTrack(5))
    assert(ss.size == 1)
    assert(ss.head.tracks.size == 1)
    assert(ss.head.tracks.head.bundles.size == 5)
  }
  test("fromTracked groups multiple scenes") {
    val tracked = Association.assignScene(movingTrack(3, scene = 0)) ++
      Association.assignScene(movingTrack(3, scene = 1))
    val ss = Loa.fromTracked(tracked)
    assert(ss.map(_.scene) == Seq(0L, 1L))
  }
  test("fromTracked carries each bundle's association id") {
    val tracked = Association.assignScene(movingTrack(4))
    val t = Loa.fromTracked(tracked).head.tracks.head
    assert(t.bundles.map(b => (b.frame, b.id)) == tracked.map(r => (r.frame, r.bundleId)).distinct.sorted)
  }
  test("bundles are ordered by frame within a track") {
    val t = scenes(movingTrack(6)).head.tracks.head
    assert(t.bundles.map(_.frame) == (0 until 6))
  }
  test("track.allObs covers every member observation") {
    val t = scenes(movingTrack(4)).head.tracks.head
    assert(t.nObs == 4)
  }
  test("hasSource distinguishes human and model tracks") {
    val human = movingTrack(4, source = Sources.Human)
    val t = scenes(human).head.tracks.head
    assert(t.hasSource(Sources.Human) && !t.hasSource(Sources.Model))
  }
  test("bundle representative is the member centroid") {
    val b = Loa.Bundle(0, 0, Seq(obs(x = 0, y = 0), obs(x = 2, y = 4, trueId = 2)))
    val r = b.representative
    assert(r.x === 1.0 && r.y === 2.0)
  }
  test("transitionSpeed computes center displacement times fps") {
    val b0 = Loa.Bundle(0, 0, Seq(obs(frame = 0, x = 0)))
    val b1 = Loa.Bundle(1, 1, Seq(obs(frame = 1, x = 2)))
    assert(math.abs(Loa.transitionSpeed(b0, b1, 5.0).get - 10.0) < 1e-9)
  }
  test("transitionSpeed spans gaps by dividing by the frame delta") {
    val b0 = Loa.Bundle(0, 0, Seq(obs(frame = 0, x = 0)))
    val b2 = Loa.Bundle(2, 2, Seq(obs(frame = 2, x = 2)))
    assert(math.abs(Loa.transitionSpeed(b0, b2, 5.0).get - 5.0) < 1e-9)
  }
  test("transitionSpeed is None for same-frame bundles") {
    val b = Loa.Bundle(3, 3, Seq(obs(frame = 3)))
    assert(Loa.transitionSpeed(b, b, 5.0).isEmpty)
  }
  test("a mixed human+model object yields bundles with both sources") {
    val human = movingTrack(4, source = Sources.Human)
    val model = movingTrack(4, source = Sources.Model).map(o => o.copy(x = o.x + 0.05))
    val t = scenes(human ++ model).head.tracks.head
    assert(t.bundles.forall(b => b.hasSource(Sources.Human) && b.hasSource(Sources.Model)))
  }

  // --- feature instances (§4.3), shared by learning and scoring ---------------

  private val volume = Loa.ObsFeature("volume", _.volume)
  private val frameGap = Loa.TransitionFeature("gap", (p, n) => (n.frame - p.frame).toDouble)
  private val length = Loa.TrackFeature("length", _.nObs.toDouble)
  // Frames 0, 0, 1: two same-frame bundles of different classes, then a truck.
  private val mixed = Loa.Track(0, IndexedSeq(
    Loa.Bundle(0, 0, Seq(obs(frame = 0, cls = Classes.Car))),
    Loa.Bundle(1, 0, Seq(obs(frame = 0, x = 50, trueId = 2, cls = Classes.Pedestrian))),
    Loa.Bundle(2, 1, Seq(obs(frame = 1, x = 0.5, cls = Classes.Truck), obs(frame = 1, x = 0.6, cls = Classes.Car)))))

  test("an observation feature has one instance per observation, with its class") {
    val is = Loa.instances(mixed, volume)
    assert(is.map(_.members) == Seq(Seq(0), Seq(1), Seq(2), Seq(3)))
    assert(is.map(_.cls) == mixed.allObs.map(o => Some(o.cls)))
    assert(is.map(_.value) == mixed.allObs.map(_.volume))
  }
  test("a transition feature has one instance per frame-advancing bundle pair, with the later bundle's class") {
    val is = Loa.instances(mixed, frameGap)
    // No instance for the same-frame pair (bundles 0 and 1).
    assert(is == Seq(Loa.Instance(Seq(1, 2, 3), 1.0, Some(Classes.Car))))
    val moving = scenes(movingTrack(5)).head.tracks.head
    assert(Loa.instances(moving, frameGap).map(_.members) == (0 until 4).map(i => Seq(i, i + 1)))
  }
  test("a track feature has one instance per track, with no class") {
    assert(Loa.instances(mixed, length) == Seq(Loa.Instance(0 until 4, 4.0, None)))
  }
  test("instance members are the compiled factors' memberObs") {
    val human = movingTrack(4, source = Sources.Human)
    val model = movingTrack(4, source = Sources.Model).map(o => o.copy(x = o.x + 0.05))
    for (t <- Seq(mixed, scenes(human ++ model).head.tracks.head)) {
      val features = Seq(volume, Loa.BundleFeature("size", _.obs.size.toDouble), frameGap, length)
      val compiled = FactorGraph.compileTrack(t, features.map(Loa.AppliedFeature(_, Aof.Identity, (_, v) => v)))
      assert(compiled.factors.map(_.memberObs) == features.flatMap(Loa.instances(t, _).map(_.members)))
    }
  }
}
