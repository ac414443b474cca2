package org.apache.spark

/** Waits until the listener bus has delivered every posted event, so counters
  * read after a layer call include all of that call's tasks. The bus is
  * package-private to Spark, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
