package org.apache.spark

/** Waits until the Spark listener bus has delivered every posted event.
  * The bus is private to Spark, so this helper lives in Spark's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
