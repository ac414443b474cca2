package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

import repro.jobs.JobSession

/** Base for every test: one local-mode SparkSession for the whole run, built
  * by [[repro.jobs.JobSession]], so the tests run under the master, shuffle
  * partitions and broadcast setting that the job and the benchmark run under.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (48g when unset; ROADMAP's tier-1 command sets half the
  * machine's memory, clamped to 2–8 GB).
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = JobSession.build("repro")
    // One line in the test output that records the heap setting, master and
    // parallelism the run used.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
