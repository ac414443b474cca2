package repro.core

import org.apache.spark.sql.SparkSession

import repro.{Oracle, SparkSpec}
import TestObs.movingTrack

class AssociationSparkSpec extends SparkSpec {
  implicit private lazy val ss: SparkSession = spark
  import org.apache.spark.sql.functions._

  test("spark wrapper matches the pure per-scene algorithm") {
    val scene0 = movingTrack(8, scene = 0) ++ movingTrack(5, scene = 0, trueId = 2, y0 = 40)
    val scene1 = movingTrack(6, scene = 1, trueId = 3)
    val all = scene0 ++ scene1
    val viaSpark = Association.assignTracks(toDs(all)).collect().toSet
    val viaPure = (Association.assignScene(scene0) ++ Association.assignScene(scene1)).toSet
    assert(viaSpark == viaPure)
  }

  test("scenes are associated independently (no cross-scene tracks)") {
    // identical geometry in two scenes: same local structure, disjoint ids
    val all = movingTrack(5, scene = 0) ++ movingTrack(5, scene = 1)
    val out = Association.assignTracks(toDs(all)).collect()
    val byScene = out.groupBy(_.scene)
    assert(byScene(0L).map(_.trackId).toSet.intersect(byScene(1L).map(_.trackId).toSet).isEmpty)
  }

  test("row count is preserved across association") {
    val all = movingTrack(9, scene = 0) ++ movingTrack(4, scene = 1, trueId = 2)
    assert(Association.assignTracks(toDs(all)).count() == all.size)
  }

  test("oracle: per-track observation counts match DuckDB") {
    val all = movingTrack(7, scene = 0) ++ movingTrack(3, scene = 0, trueId = 2, y0 = 60)
    val tracked = Association.assignTracks(toDs(all)).toDF().cache()
    val agg = tracked.groupBy("trackId").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(agg, "SELECT trackId, COUNT(*) AS n FROM tracked GROUP BY trackId", "tracked" -> tracked)
  }

  test("oracle: per-scene distinct track counts match DuckDB") {
    val all = movingTrack(5, scene = 0) ++ movingTrack(5, scene = 1, trueId = 2) ++
      movingTrack(4, scene = 1, trueId = 3, y0 = 50)
    val tracked = Association.assignTracks(toDs(all)).toDF().cache()
    val agg = tracked.groupBy("scene").agg(countDistinct("trackId").as("ntracks"))
    Oracle.assertEquivalent(
      agg,
      "SELECT scene, COUNT(DISTINCT trackId) AS ntracks FROM tracked GROUP BY scene",
      "tracked" -> tracked)
  }

  test("association of generated perception data is deterministic") {
    import repro.perception.PerceptionData
    val spec = PerceptionData.internalTrain.copy(nScenes = 2)
    val a = Association.assignTracks(PerceptionData.observations(spec)).collect().sortBy(o => (o.scene, o.frame, o.trueId, o.x))
    val b = Association.assignTracks(PerceptionData.observations(spec)).collect().sortBy(o => (o.scene, o.frame, o.trueId, o.x))
    assert(a.toSeq == b.toSeq)
  }

  test("a labeled object's human and model observations end in one track") {
    import repro.perception.PerceptionData
    val spec = PerceptionData.internalTrain.copy(nScenes = 1, ghostsPerScene = 0, objectsPerScene = 10, pMissingTrack = 0.0)
    val tracked = Association.assignTracks(PerceptionData.observations(spec)).collect()
    // every track containing model obs of a real labeled object also contains human obs
    val byTrack = tracked.groupBy(_.trackId)
    val fullVis = tracked.filter(o => o.trueId > 0).groupBy(_.trueId)
      .filter { case (_, os) => os.exists(_.source == Sources.Human) && os.count(_.source == Sources.Model) >= 10 }
    for ((id, os) <- fullVis) {
      val modelTracks = os.filter(_.source == Sources.Model).map(_.trackId).distinct
      val hasHumanSomewhere = modelTracks.exists(t => byTrack(t).exists(_.source == Sources.Human))
      assert(hasHumanSomewhere, s"object $id: model track never met its human track")
    }
  }
}
