package repro.core

import org.scalatest.funsuite.AnyFunSuite

import TestObs.{movingTrack, obs}

class FactorGraphSpec extends AnyFunSuite {
  private def track(os: Seq[Obs]): Loa.Track =
    Loa.fromTracked(Association.assignScene(os)).head.tracks.head

  /** π with the identity distribution: the factor's value is π's value. */
  private def applied(f: Loa.Feature, aof: Aof = Aof.Identity) = Loa.AppliedFeature(f, aof, (_, v) => v)
  private val constVol = applied(Loa.ObsFeature("vol", _ => 0.4))
  private val constVel = applied(Loa.TransitionFeature("vel", (_, _) => 0.2))

  test("paper §6 worked example: score = (ln 0.37 + ln 0.39 + ln 0.21)/3 = -1.17") {
    // Two observations in adjacent frames with volume scores 0.37 and 0.39
    // and a velocity transition scored 0.21.
    val vols = Map(0 -> 0.37, 1 -> 0.39)
    val volF = applied(Loa.ObsFeature("vol", o => vols(o.frame)))
    val velF = applied(Loa.TransitionFeature("vel", (_, _) => 0.21))
    val t = track(movingTrack(2))
    val g = FactorGraph.compileTrack(t, Seq(volF, velF))
    val expected = (math.log(0.37) + math.log(0.39) + math.log(0.21)) / 3
    assert(math.abs(g.score - expected) < 1e-12)
    assert(math.abs(g.score - (-1.17)) < 0.005) // the paper's rounded value
  }

  test("graph is bipartite: factors connect only to observations") {
    val t = track(movingTrack(4))
    val g = FactorGraph.compileTrack(t, Seq(constVol, constVel))
    assert(g.factors.forall(_.memberObs.forall(i => i >= 0 && i < g.obs.size)))
  }
  test("obs features create one factor per observation") {
    val t = track(movingTrack(5))
    val g = FactorGraph.compileTrack(t, Seq(constVol))
    assert(g.nFactors == 5)
    assert(g.factors.forall(_.memberObs.size == 1))
  }
  test("transition features create one factor per adjacent bundle pair") {
    val t = track(movingTrack(5))
    val g = FactorGraph.compileTrack(t, Seq(constVel))
    assert(g.nFactors == 4)
    assert(g.factors.forall(_.memberObs.size == 2))
  }
  test("bundle features create one factor per bundle, edges to all members") {
    val human = movingTrack(3, source = Sources.Human)
    val model = movingTrack(3, source = Sources.Model).map(o => o.copy(x = o.x + 0.05))
    val t = track(human ++ model)
    val bf = applied(Loa.BundleFeature("b", _ => 0.5))
    val g = FactorGraph.compileTrack(t, Seq(bf))
    assert(g.nFactors == 3)
    assert(g.factors.forall(_.memberObs.size == 2))
  }
  test("track features create exactly one factor spanning all observations") {
    val t = track(movingTrack(6))
    val tf = applied(Loa.TrackFeature("len", _ => 0.8))
    val g = FactorGraph.compileTrack(t, Seq(tf))
    assert(g.nFactors == 1)
    assert(g.factors.head.memberObs.size == 6)
  }
  test("edge count matches the sum over factor arities") {
    val t = track(movingTrack(4))
    val g = FactorGraph.compileTrack(t, Seq(constVol, constVel))
    assert(g.factors.map(_.memberObs.size).sum == 4 * 1 + 3 * 2)
  }
  test("score normalizes by factor count (track length comparability, §6)") {
    // Not exactly length-invariant (n obs factors vs n−1 transitions), but a
    // 10× longer track with identical per-factor values scores within 0.1.
    val short = FactorGraph.compileTrack(track(movingTrack(3)), Seq(constVol, constVel))
    val long = FactorGraph.compileTrack(track(movingTrack(30)), Seq(constVol, constVel))
    assert(math.abs(short.score - long.score) < 0.1)
    // With a single per-obs feature the score IS exactly length-invariant.
    val s1 = FactorGraph.compileTrack(track(movingTrack(3)), Seq(constVol)).score
    val s2 = FactorGraph.compileTrack(track(movingTrack(30)), Seq(constVol)).score
    assert(math.abs(s1 - s2) < 1e-9)
  }
  test("aof invert flips the ranking of likely vs unlikely tracks") {
    val likely = applied(Loa.ObsFeature("f", _ => 0.9))
    val unlikely = applied(Loa.ObsFeature("f", _ => 0.1))
    val likelyInv = applied(Loa.ObsFeature("f", _ => 0.9), Aof.Invert)
    val unlikelyInv = applied(Loa.ObsFeature("f", _ => 0.1), Aof.Invert)
    val t = track(movingTrack(3))
    assert(FactorGraph.compileTrack(t, Seq(likely)).score >
           FactorGraph.compileTrack(t, Seq(unlikely)).score)
    assert(FactorGraph.compileTrack(t, Seq(likelyInv)).score <
           FactorGraph.compileTrack(t, Seq(unlikelyInv)).score)
  }
  test("zero likelihood is floored at eps, not -infinity") {
    val zero = applied(Loa.ObsFeature("f", _ => 0.0))
    val g = FactorGraph.compileTrack(track(movingTrack(2)), Seq(zero))
    assert(g.score == math.log(FactorGraph.Eps))
    assert(!g.score.isNegInfinity)
  }
  test("empty feature list scores ln(eps)") {
    val g = FactorGraph.compileTrack(track(movingTrack(2)), Seq.empty)
    assert(g.score == math.log(FactorGraph.Eps))
  }
  test("same-frame bundles emit no transition factor") {
    // two distant same-frame boxes plus one next-frame box near the first
    val a = obs(frame = 0, x = 0)
    val b = obs(frame = 0, x = 50, trueId = 2)
    val c = obs(frame = 1, x = 0.5)
    // force all in one track via loose threshold? they are separate tracks;
    // instead build the bundle structure manually
    val t = Loa.Track(0, IndexedSeq(Loa.Bundle(0, 0, Seq(a)), Loa.Bundle(1, 0, Seq(b)), Loa.Bundle(2, 1, Seq(c))))
    val g = FactorGraph.compileTrack(t, Seq(constVel))
    assert(g.nFactors == 1) // only the frame-0 → frame-1 pair
  }
}
