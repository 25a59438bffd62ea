package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** Counts the Spark jobs a block starts, on any thread. */
object SparkJobs {
  def count[T](spark: SparkSession)(body: => T): (T, Int) = {
    val sc = spark.sparkContext
    // events of earlier jobs must not reach the new listener
    ListenerBusDrain(sc)
    val started = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = started.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try {
      val out = body
      ListenerBusDrain(sc)
      (out, started.get)
    } finally sc.removeSparkListener(listener)
  }
}
