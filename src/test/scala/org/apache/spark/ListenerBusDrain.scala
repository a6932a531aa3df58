package org.apache.spark

/** Waits until Spark's listener bus has delivered every posted event, so a
  * test's listener has seen every job started so far. The bus is private to
  * Spark, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
