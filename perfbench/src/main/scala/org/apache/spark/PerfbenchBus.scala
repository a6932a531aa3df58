package org.apache.spark

/** Waits until Spark's listener bus has delivered every posted event, so
  * job spans and task counters are complete before they are read. The bus
  * is private to Spark, hence this package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
