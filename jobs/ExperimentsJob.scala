package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.eval.Experiments

/** Reproduces the four §8 results from one [[Experiments.run]]:
  *  - Table 3 (§8.2): precision@{10,5,1} of Fixy vs ad-hoc MA orderings for
  *    finding tracks entirely missed by human labels;
  *  - §8.2 recall: Fixy's recall of the 24 missing tracks in the exhaustively
  *    audited internal scene (paper: 18/24 = 75%);
  *  - §8.3: the injected consistent missing observation within a human track
  *    is ranked first among candidate bundles (paper: ranked at the top);
  *  - §8.4: Fixy finds novel model-prediction errors that the ad-hoc MAs
  *    cannot (paper: P@10 82% vs 42% for uncertainty sampling; errors with
  *    confidence as high as 95%).
  */
object ExperimentsJob {
  def main(args: Array[String]): Unit = {
    implicit val spark: SparkSession = JobSession.build("fixy-experiments")
    try {
      val r = Experiments.run
      println(f"${"Method"}%-18s ${"Dataset"}%-9s ${"P@10"}%6s ${"P@5"}%6s ${"P@1"}%6s")
      r.table3.rows.foreach { t =>
        println(f"${t.method}%-18s ${t.dataset}%-9s ${t.p10 * 100}%5.0f%% ${t.p5 * 100}%5.0f%% ${t.p1 * 100}%5.0f%%")
      }
      println(f"Lyft scene coverage at top-10: ${r.table3.lyftSceneCoverage * 100}%.0f%% (paper: 100%%)")
      println(f"Recall: ${r.recall.found}/${r.recall.total} = ${r.recall.recall * 100}%.0f%% (paper: 18/24 = 75%%)")
      println(s"Injected missing observation global rank: ${r.missingObs.goodRank} of ${r.missingObs.nCandidates} candidates (paper: rank 1)")
      println(f"Fixy P@10:        ${r.modelErrors.fixyP10 * 100}%.0f%% (paper: 82%%)")
      println(f"Uncertainty P@10: ${r.modelErrors.uncertaintyP10 * 100}%.0f%% (paper: 42%%)")
      println(f"Max confidence among Fixy true positives: ${r.modelErrors.maxConfAmongFixyHits * 100}%.0f%% (paper: up to 95%%)")
    } finally spark.stop()
  }
}
