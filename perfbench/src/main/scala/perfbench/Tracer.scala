package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import org.apache.spark.ListenerDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Spark work done while one span was open. */
final case class SparkWork(jobs: Long = 0, tasks: Long = 0, shuffleBytes: Long = 0,
                           taskMs: Long = 0)

/** One timed call from the benchmark into a layer of the program. */
final case class Span(layer: String, op: String, round: Int, startNs: Long, endNs: Long,
                      cpuNs: Long, work: SparkWork) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Outside-in tracer: records a span around each call the benchmark makes
  * into a layer (`data`, `detect`, `algos`, `guard`, `metrics`). Spark jobs
  * are attributed to the open span through a local property that the
  * listener reads back from each job; CPU is the calling thread's.
  * Spans stay in memory until [[spans]] is read at the end of the run.
  */
final class Tracer(spark: SparkSession) {
  private val SpanKey = "perfbench.span"
  private val sc = spark.sparkContext
  private val threads = ManagementFactory.getThreadMXBean
  private val recorded = ArrayBuffer.empty[Span]
  private var nextId = 0L

  private val jobSpan   = new ConcurrentHashMap[Int, Long]()
  private val stageSpan = new ConcurrentHashMap[Int, Long]()
  private val work      = new ConcurrentHashMap[Long, SparkWork]()

  private def add(span: Long, w: SparkWork): Unit =
    work.merge(span, w, (a, b) => SparkWork(a.jobs + b.jobs, a.tasks + b.tasks,
      a.shuffleBytes + b.shuffleBytes, a.taskMs + b.taskMs))

  sc.addSparkListener(new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit =
      Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey))).foreach { s =>
        val span = s.toLong
        jobSpan.put(e.jobId, span)
        e.stageIds.foreach(stageSpan.put(_, span))
        add(span, SparkWork(jobs = 1))
      }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      Option(stageSpan.get(e.stageId)).foreach { span =>
        val m = e.taskMetrics
        val shuffle = if (m == null) 0L else m.shuffleWriteMetrics.bytesWritten
        val ms = if (m == null) 0L else m.executorRunTime
        add(span, SparkWork(tasks = 1, shuffleBytes = shuffle, taskMs = ms))
      }
  })

  /** Runs `body` as one span of `layer`, attributing its Spark work. */
  def span[T](layer: String, op: String, round: Int)(body: => T): T = {
    val id = { nextId += 1; nextId }
    sc.setLocalProperty(SpanKey, id.toString)
    val cpu0 = threads.getCurrentThreadCpuTime
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      val cpu = threads.getCurrentThreadCpuTime - cpu0
      sc.setLocalProperty(SpanKey, null)
      ListenerDrain(sc)
      recorded += Span(layer, op, round, t0, t1, cpu, Option(work.remove(id)).getOrElse(SparkWork()))
    }
  }

  def spans: Seq[Span] = recorded.toSeq
}

/** JVM-wide garbage-collection time so far, in seconds. */
object Gc {
  def seconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3
}
