package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.eval.Experiments

/** Shared session builder for the spark-submit entrypoints. */
object JobSession {
  def build(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Reproduces Table 3 (§8.2): precision@{10,5,1} of Fixy vs ad-hoc MA
  * orderings for finding tracks entirely missed by human labels.
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    implicit val spark: SparkSession = JobSession.build("fixy-table3")
    try {
      val res = Experiments.table3
      println(f"${"Method"}%-18s ${"Dataset"}%-9s ${"P@10"}%6s ${"P@5"}%6s ${"P@1"}%6s")
      res.rows.foreach { r =>
        println(f"${r.method}%-18s ${r.dataset}%-9s ${r.p10 * 100}%5.0f%% ${r.p5 * 100}%5.0f%% ${r.p1 * 100}%5.0f%%")
      }
      println(f"Lyft scene coverage at top-10: ${res.lyftSceneCoverage * 100}%.0f%% (paper: 100%%)")
    } finally spark.stop()
  }
}
