package repro

import java.io.PrintWriter

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions.col

import repro.baselines.{ModelAssertions, Uncertainty}
import repro.core.{Association, FactorGraph, Fixy, FixyConfig, LearnedModel, Loa, Sources, TrackedObs}
import repro.eval.{Experiments, Metrics}
import repro.perception.{DatasetSpec, PerceptionData}

/** Writes every ranking the experiments rank, with the auditor's label of each
  * proposal, for diffing two versions of the code: one tab-separated line per
  * ranked track or bundle — ranking, scene, id, rank, the full-precision score
  * or severity, and [[repro.eval.Metrics]]' `majTrueId` (the track's or
  * bundle's object) and `isError` — ordered by ranking, scene and rank. The
  * §8.4 flagged set is written as ids only.
  *
  * Rankings: Fixy's missing tracks, MA(conf) and MA(rand) with seeds 1–5 on
  * `lyftEval` and `internalAudit`; Fixy's §8.3 bundles on `missingObsSim`;
  * the §8.4 flagged set, Fixy's model errors and uncertainty sampling on the
  * model observations of `modelErrorSim`.
  *
  * Every factor of every `internalAudit` track under the three feature sets
  * (§8.2, §8.4, and volume + velocity only): scene, track id, factor name,
  * member observation positions and the full-precision value, in compiled
  * order.
  *
  * Then the results of one [[repro.eval.Experiments.run]], at full
  * precision: each Table 3 row and the lyft scene coverage, §8.2 recall, §8.3
  * and §8.4. To compare two versions, each side runs its own dump.
  *
  * Run: `sbt "Test/runMain repro.RankingDump <out.tsv>"`
  */
object RankingDump {
  def main(args: Array[String]): Unit = {
    require(args.length == 1, "usage: RankingDump <out.tsv>")
    implicit val spark: SparkSession = SparkSpec.shared
    val cfg = FixyConfig()
    val out = new PrintWriter(args(0))
    def dump(ranking: String, labeled: DataFrame, id: String, score: String): Unit =
      labeled.select(col("scene"), col(id), col("rank"), col(score), col("majTrueId"), col("isError")).collect()
        .map(r => (r.getLong(0), r.getInt(2), r.getLong(1), r.getDouble(3), r.getLong(4), r.getBoolean(5))).sorted
        .foreach { case (scene, rank, i, s, maj, err) => out.println(s"$ranking\t$scene\t$i\t$rank\t$s\t$maj\t$err") }
    def learn(train: DatasetSpec) = Fixy.learn(PerceptionData.observations(train), cfg)
    def dumpFactors(dataset: String, learned: LearnedModel, tracked: Dataset[TrackedObs]): Unit = {
      val tracks = Loa.fromTracked(tracked.collect().toSeq).flatMap(s => s.tracks.map(s.scene -> _))
      for ((set, features) <- Seq(
          "missing-tracks" -> Fixy.driverFeatures(learned, cfg),
          "model-errors" -> Fixy.driverFeatures(learned, cfg, useDistance = false, useTrackLength = true, invert = true),
          "volume-velocity" -> Fixy.driverFeatures(learned, cfg, useDistance = false));
          (scene, t) <- tracks; f <- FactorGraph.compileTrack(t, features).factors)
        out.println(s"$dataset/factors/$set\t$scene\t${t.trackId}\t${f.name}\t${f.memberObs.mkString(",")}\t${f.value}")
    }
    try {
      for ((train, eval) <- Seq(
          PerceptionData.lyftTrain -> PerceptionData.lyftEval,
          PerceptionData.internalTrain -> PerceptionData.internalAudit)) {
        val learned = learn(train)
        val tracked = Association.assignTracks(PerceptionData.observations(eval), cfg.assoc).cache()
        val truth = PerceptionData.truth(eval).cache()
        def label(ranked: DataFrame) = Metrics.labelMissingTrackProposals(ranked, tracked, truth)
        dump(s"${eval.name}/fixy", label(Fixy.rankMissingTracks(tracked, learned, cfg)), "trackId", "score")
        dump(s"${eval.name}/ma-conf", label(ModelAssertions.consistency(tracked, "conf", cfg.minTrackObs)), "trackId", "severity")
        for (seed <- 1L to 5L)
          dump(s"${eval.name}/ma-rand-$seed", label(ModelAssertions.consistency(tracked, "rand", cfg.minTrackObs, seed)),
            "trackId", "severity")
        if (eval == PerceptionData.internalAudit) dumpFactors(eval.name, learned, tracked)
        tracked.unpersist()
        truth.unpersist()
      }
      val learned = learn(PerceptionData.internalTrain)
      val missingObs = Association.assignTracks(PerceptionData.observations(PerceptionData.missingObsSim), cfg.assoc)
      dump("missing-obs/fixy", Metrics.labelMissingObsProposals(Fixy.rankMissingObservations(missingObs, learned, cfg),
        missingObs, PerceptionData.truth(PerceptionData.missingObsSim)), "bundleId", "score")

      val modelObs = PerceptionData.observations(PerceptionData.modelErrorSim).filter(_.source == Sources.Model)
      val tracked = Association.assignTracks(modelObs, cfg.assoc).cache()
      val flagged = ModelAssertions.allFlagged(tracked, appearMinObs = 4)
      flagged.foreach(id => out.println(s"model-errors/flagged\t\t$id\t\t"))
      def label(ranked: DataFrame) = Metrics.labelModelErrorProposals(ranked, tracked)
      dump("model-errors/fixy", label(Fixy.rankModelErrors(tracked, learned, cfg, excludedTrackIds = flagged)), "trackId", "score")
      dump("model-errors/uncertainty", label(Uncertainty.rankTracks(tracked)), "trackId", "severity")
      tracked.unpersist()

      val experiments = Experiments.run
      experiments.table3.rows.foreach(r =>
        out.println(s"experiments/table3\t${r.method}\t${r.dataset}\t${r.p10}\t${r.p5}\t${r.p1}"))
      out.println(s"experiments/table3\tlyft-scene-coverage\t${experiments.table3.lyftSceneCoverage}")
      out.println(s"experiments/recall\t${experiments.recall}")
      out.println(s"experiments/missing-obs\t${experiments.missingObs}")
      out.println(s"experiments/model-errors\t${experiments.modelErrors}")
    } finally {
      out.close()
      spark.stop()
    }
  }
}
