package repro.core

/** Application objective functions (§5.3): numeric transforms applied to a
  * feature distribution's likelihood before scoring. "The most common
  * operations are taking the inverse and setting the probability to 0/1 under
  * certain conditions"; [[Fixy]] applies the 0/1 cases as track predicates.
  */
sealed trait Aof extends Serializable {
  def apply(p: Double): Double
}

object Aof {
  /** Used when searching for *likely* tracks (e.g. real objects humans missed). */
  case object Identity extends Aof { def apply(p: Double): Double = p }

  /** Used when searching for *unlikely* tracks (e.g. erroneous model predictions, §7). */
  case object Invert extends Aof { def apply(p: Double): Double = 1.0 - p }
}
