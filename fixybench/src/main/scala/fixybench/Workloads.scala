package fixybench

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{Obs, Sources}
import repro.perception.{DatasetSpec, PerceptionData, TruthRow}

/** One application run on an evaluation dataset. */
sealed trait App { def spec: DatasetSpec }

/** §8.2: tracks missed entirely by the human labels (Fixy and MA(conf)),
  * with the per-class recall protocol when `recall`.
  */
final case class MissingTracks(spec: DatasetSpec, recall: Boolean) extends App

/** §8.3: a missing observation inside a human track (bundle ranking). */
final case class MissingObs(spec: DatasetSpec) extends App

/** §8.4: model-prediction errors on model observations only. */
final case class ModelErrors(spec: DatasetSpec) extends App

/** A workload: the training split `Fixy.learn` sees, then the applications
  * one operation runs.
  */
final case class Workload(name: String, train: DatasetSpec, apps: Seq[App]) {
  def evalScenes: Int = apps.map(_.spec.nScenes).sum
}

object Workloads {
  val Names: Seq[String] = Seq("lyft", "internal")

  /** The workload `name` at `seed`. Seed 0 gives the `PerceptionData`
    * presets; any other seed shifts every preset's generator seed.
    */
  def apply(name: String, seed: Long): Workload = {
    def at(spec: DatasetSpec): DatasetSpec = spec.copy(seed = spec.seed + 1000L * seed)
    import PerceptionData._
    name match {
      case "lyft" =>
        Workload(name, at(lyftTrain), Seq(MissingTracks(at(lyftEval), recall = false)))
      case "internal" =>
        Workload(name, at(internalTrain), Seq(
          MissingTracks(at(internalAudit), recall = true),
          MissingObs(at(missingObsSim)),
          ModelErrors(at(modelErrorSim))))
      case other =>
        throw new IllegalArgumentException(s"unknown workload '$other' (one of ${Names.mkString(", ")})")
    }
  }
}

/** Generated observations and ground truth of one evaluation dataset. */
final case class EvalInput(obs: Dataset[Obs], truth: Dataset[TruthRow])

/** A workload's inputs, generated and cached before any operation runs, so
  * operations receive only generated observations.
  */
final case class Inputs(train: Dataset[Obs], eval: Map[String, EvalInput]) {
  def unpersist(): Unit = {
    train.unpersist(blocking = true)
    eval.values.foreach { e => e.obs.unpersist(blocking = true); e.truth.unpersist(blocking = true) }
  }
}

object Inputs {
  def generate(w: Workload)(implicit spark: SparkSession): Inputs = {
    def cached[T](ds: Dataset[T]): Dataset[T] = { val d = ds.cache(); d.count(); d }
    val train = cached(PerceptionData.observations(w.train))
    val eval = w.apps.map { a =>
      val obs = PerceptionData.observations(a.spec)
      val appObs = a match {
        case _: ModelErrors => obs.where(col("source") === Sources.Model)
        case _              => obs
      }
      a.spec.name -> EvalInput(cached(appObs), cached(PerceptionData.truth(a.spec)))
    }.toMap
    Inputs(train, eval)
  }
}
