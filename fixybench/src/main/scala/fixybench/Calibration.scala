package fixybench

import java.util.concurrent.{Executors, TimeUnit}

/** Machine speed, measured in the same run as the operations.
  *
  * On a shared machine the speed of the cores drifts by tens of percent over
  * minutes, and every phase of an operation, in wall and in CPU time, drifts
  * with it. The calibration is a fixed amount of work owned by the benchmark —
  * fill and sort an array of doubles, on every core at once, as Spark's tasks
  * run — and its time divides that drift out of the reported times.
  */
object Calibration {
  /** Calibration time, in seconds, at the reference speed the reported times
    * are scaled to: the median on the 4-vCPU VM the benchmark was defined on,
    * so there reported and measured times agree on average.
    */
  val ReferenceS = 0.47

  private val Length = 1 << 18
  private val Rounds = 12
  private val Reps = 3

  private def work(seed: Long): Double = {
    val a = new Array[Double](Length)
    var x = seed
    var acc = 0.0
    var r = 0
    while (r < Rounds) {
      var i = 0
      while (i < Length) {
        x = x * 6364136223846793005L + 1442695040888963407L
        a(i) = (x >>> 11).toDouble
        i += 1
      }
      java.util.Arrays.sort(a)
      acc += a(Length / 2)
      r += 1
    }
    acc
  }

  /** Wall time of one round of the fixed work on `threads` threads at once. */
  private def once(threads: Int): Double = {
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val t0 = System.nanoTime()
      val fs = (0 until threads).map(i => pool.submit(() => work(i + 1L)))
      fs.foreach(_.get())
      (System.nanoTime() - t0) / 1e9
    } finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
  }

  /** Median of a few calibration rounds on all cores, after one warm-up round. */
  def seconds(): Double = {
    val threads = Runtime.getRuntime.availableProcessors
    once(threads)
    Stats.median(Seq.fill(Reps)(once(threads)))
  }
}
