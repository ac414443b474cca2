package repro.bench

import repro.SparkSpec

/** Reproduces Table 3 (§8.2): precision@{10,5,1} for finding tracks entirely
  * missed by human labels — Fixy vs the ad-hoc consistency MA with random and
  * confidence severity orderings, on the Lyft-sim and Internal-sim datasets.
  *
  * Paper numbers:
  *   FIXY              Lyft      69% / 70% / 67%
  *   Ad-hoc MA (rand)  Lyft      32% / 30% / 24%
  *   Ad-hoc MA (conf)  Lyft      39% / 40% / 39%
  *   FIXY              Internal  76% / 100% / 100%
  *   Ad-hoc MA (rand)  Internal  49% / 64% / 66%
  *   Ad-hoc MA (conf)  Internal  71% / 86% / 66%
  */
class Table3Bench extends SparkSpec {

  private lazy val result = ExperimentsRun.results.table3

  private val paper = Map(
    ("FIXY", "Lyft") -> ((0.69, 0.70, 0.67)),
    ("Ad-hoc MA (rand)", "Lyft") -> ((0.32, 0.30, 0.24)),
    ("Ad-hoc MA (conf)", "Lyft") -> ((0.39, 0.40, 0.39)),
    ("FIXY", "Internal") -> ((0.76, 1.00, 1.00)),
    ("Ad-hoc MA (rand)", "Internal") -> ((0.49, 0.64, 0.66)),
    ("Ad-hoc MA (conf)", "Internal") -> ((0.71, 0.86, 0.66)),
  )

  test("Table 3: print paper vs measured") {
    println(f"%n=== Table 3: precision for finding missing tracks ===")
    println(f"${"Method"}%-18s ${"Dataset"}%-9s ${"P@10"}%12s ${"P@5"}%12s ${"P@1"}%12s   (paper -> measured)")
    result.rows.foreach { r =>
      val (p10, p5, p1) = paper((r.method, r.dataset))
      println(f"${r.method}%-18s ${r.dataset}%-9s ${p10 * 100}%3.0f%% -> ${r.p10 * 100}%3.0f%% ${p5 * 100}%3.0f%% -> ${r.p5 * 100}%3.0f%% ${p1 * 100}%3.0f%% -> ${r.p1 * 100}%3.0f%%")
    }
    println(f"Lyft scene coverage at top-10: ${result.lyftSceneCoverage * 100}%.0f%% (paper: 100%%)%n")
    assert(result.rows.size == 6)
  }

  private def row(method: String, dataset: String) =
    result.rows.find(r => r.method == method && r.dataset == dataset).get

  test("shape: Fixy beats the random-ordered MA by a wide margin on both datasets") {
    for (ds <- Seq("Lyft", "Internal")) {
      val fixy = row("FIXY", ds)
      val rand = row("Ad-hoc MA (rand)", ds)
      assert(fixy.p10 > rand.p10 * 1.3, s"$ds: fixy=${fixy.p10} rand=${rand.p10}")
    }
  }
  test("shape: Fixy reaches ~2x the random MA's precision@10 on Lyft (paper: 69% vs 32%)") {
    val fixy = row("FIXY", "Lyft")
    val rand = row("Ad-hoc MA (rand)", "Lyft")
    assert(fixy.p10 >= rand.p10 * 1.5, s"fixy=${fixy.p10} rand=${rand.p10}")
  }
  test("shape: Fixy's precision@10 is high in absolute terms (paper: 69-76%)") {
    assert(row("FIXY", "Lyft").p10 >= 0.5)
    assert(row("FIXY", "Internal").p10 >= 0.5)
  }
  test("shape: confidence ordering helps on the calibrated internal model") {
    val conf = row("Ad-hoc MA (conf)", "Internal")
    val rand = row("Ad-hoc MA (rand)", "Internal")
    assert(conf.p10 > rand.p10, s"conf=${conf.p10} rand=${rand.p10}")
  }
  test("shape: confidence ordering helps little on the noisy Lyft model") {
    val conf = row("Ad-hoc MA (conf)", "Lyft")
    val fixy = row("FIXY", "Lyft")
    assert(conf.p10 < fixy.p10, s"conf=${conf.p10} fixy=${fixy.p10}")
  }
  test("shape: Fixy's top-5 on the audited internal scene is near-perfect (paper: 100%)") {
    assert(row("FIXY", "Internal").p5 >= 0.8)
  }
  test("shape: Fixy finds a real error in the top-10 of nearly every errorful Lyft scene (paper: 100%)") {
    assert(result.lyftSceneCoverage >= 0.9)
  }
}
