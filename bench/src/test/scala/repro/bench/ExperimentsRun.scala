package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** The one [[Experiments.run]] the bench suites read: they share one JVM and
  * session, so a bench run learns, associates and ranks once for all four.
  */
object ExperimentsRun {
  lazy val results: Experiments.Results = Experiments.run(SparkSpec.shared)
}
