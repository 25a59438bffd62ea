package perfbench

import java.lang.management.ManagementFactory
import java.time.Instant
import scala.collection.mutable
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.SparkSession
import repro.core.Harness.RunOutcome
import repro.core.{Budget, BudgetExceeded, DetectionGuard, Harness, Metrics, RepairEval, RepairResult, SimulatedOOM}

/** Benchmark entry point: runs one workload in this JVM and prints one
  * result line, `PERFBENCH {json}`, for `run.py` to relay.
  *
  * Untraced (`--trace 0`): inputs are generated and detected once, the
  * workload's warm-up rounds are run and discarded, then whole timed rounds
  * run until `--seconds` have passed (at least three, so that a median is
  * one round's figure). Each operation goes through `Harness.runOne`, as
  * `Harness.table4` and `Harness.table6` call it. Traced (`--trace 1`): the same set-up, then rounds that regenerate
  * and re-detect their inputs and call the layers one by one, each inside
  * a span.
  */
object Main {
  /** Wall-clock budget per operation: far above the slowest healthy one
    * (under 10 s), so no status depends on machine speed.
    */
  val BudgetMs = 60000L
  val MinRounds = 3
  /** Live heap is taken after this many rounds in every run (it grows
    * pass over pass); the full collection that needs falls in the warm-up.
    */
  val HeapAfterRound = 2
  /** Spark task threads (`local[n]`). */
  val Threads = 2
  /** Entries of Spark's cache of generated classes. */
  val CodegenCacheEntries = 2000

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        launchedAtNs: Long, traceFile: String)

  final case class Metric(name: String, value: Double, unit: String)

  final case class Result(attempted: Long, failed: Long, metrics: Seq[Metric])

  def main(argv: Array[String]): Unit = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val args = Args(arg("workload"), arg("seed").toLong, arg("seconds").toInt, arg("trace") == "1",
      arg("launched-at-ns").toLong, arg("trace-file"))
    val w = Workloads.byName(args.workload)
    val spark = SparkSession.builder
      // two task threads on the three CPUs `run.py` pins the JVM to: the
      // driver, JIT compiler and GC threads keep a CPU of their own
      .master(s"local[$Threads]")
      .appName(s"perfbench-${w.name}")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      // room for every generated class of a round: at the default of 100,
      // `guarded` recompiled 44-108 classes per round, a count that varies
      // with the seed, and the JIT never settled on the new classes
      .config("spark.sql.codegen.cache.maxEntries", CodegenCacheEntries.toString)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", sys.props("java.io.tmpdir"))
      .getOrCreate()
    Console.err.println(f"[perfbench] Spark up ${(epochNs() - args.launchedAtNs) / 1e9}%.3f s after launch")
    val checks = new Checks(args.seed)
    val result =
      try if (args.trace) new TracedRun(spark, w, args, checks).run() else untraced(spark, w, args, checks)
      finally spark.stop()
    checks.failures.foreach(f => Console.err.println(s"[perfbench] check failed: $f"))
    val metrics = result.metrics.map(m =>
      s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""").mkString(", ")
    println(s"""PERFBENCH {"correct": ${checks.failures.isEmpty}, "attempted": ${result.attempted}, """ +
      s""""failed": ${result.failed}, "metrics": {$metrics}}""")
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) throw new IllegalStateException(s"metric is not a number: $v") else v.toString

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def epochNs(): Long = { val i = Instant.now(); i.getEpochSecond * 1000000000L + i.getNano }

  /** Whether an operation failed: `err`, `n/a*`, or an `n/a` other than
    * Relative tripping its search-node budget well inside the wall clock.
    */
  def failedOp(algo: String, status: String, wallS: Double): Boolean = status match {
    case "ok"  => false
    case "n/a" => !(Workloads.expectedNa(algo) && wallS < BudgetMs / 1e3)
    case _     => true
  }

  /** CPU time of the whole JVM (task, driver, JIT and GC threads). */
  def processCpuNs(): Long =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  /** Used heap after a full collection, in MB. */
  def liveHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  type Round = (Double, Seq[(RunOutcome, Double)])

  /** Set-up shared by both kinds of run: the inputs, generated and
    * detected once, and the discarded warm-up rounds (checked like the
    * timed ones). Returns the inputs and the live heap after
    * [[HeapAfterRound]] rounds.
    */
  def setUp(spark: SparkSession, w: Workload, seed: Long, checks: Checks): (Seq[Input], Double) = {
    val t0 = System.nanoTime()
    val inputs = w.datasets.map { case (gen, n) =>
      val gd = Input.generate(spark, gen, n, seed)
      Input(gd, Input.detect(gd))
    }
    Console.err.println(f"[perfbench] inputs generated and detected in ${(System.nanoTime() - t0) / 1e9}%.3f s")
    var heapMb = 0.0
    val warmUps = (1 to w.warmUpRounds).map { i =>
      val r = round(w, inputs)
      if (i == HeapAfterRound) heapMb = liveHeapMb()
      r
    }
    check(w, inputs, warmUps, checks)
    (inputs, heapMb)
  }

  /** One round through `Harness.runOne`: (wall seconds, outcomes with their wall seconds). */
  def round(w: Workload, inputs: Seq[Input]): Round = {
    val cpu0 = processCpuNs()
    val compiled0 = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
    val t0 = System.nanoTime()
    val outs = for (in <- inputs; a <- w.algos) yield {
      val s = System.nanoTime()
      val o = Harness.runOne(w.entry(a), in.gd, BudgetMs, precomputedDetections = Some(in.detections))
      (o.copy(algo = a.name), (System.nanoTime() - s) / 1e9)
    }
    val wall = (System.nanoTime() - t0) / 1e9
    val cpu = (processCpuNs() - cpu0) / 1e9
    val compiled = CodegenMetrics.METRIC_COMPILATION_TIME.getCount - compiled0
    Console.err.println(f"[perfbench] round $wall%.3f s, process CPU $cpu%.3f s, $compiled classes generated: " +
      outs.map { case (o, s) => f"${o.algo} ${o.status} $s%.3f" }.mkString(", "))
    (wall, outs)
  }

  /** Checks every outcome, and its OEC against a DuckDB recount. */
  private def check(w: Workload, inputs: Seq[Input], rounds: Seq[Round], checks: Checks): Unit = {
    val duck = new Duck
    try {
      val oec = inputs.map { in =>
        duck.load("dirty", in.gd.dirty, in.gd.attrs)
        duck.load("clean", in.gd.clean, in.gd.attrs)
        in.gd.name -> duck.oec("dirty", "clean", in.gd.attrs)
      }.toMap
      for ((_, outs) <- rounds; (o, _) <- outs) {
        checks.outcome(w, o.algo, o.dataset, o.status, o.eval)
        o.eval.foreach(ev => checks.check(ev.oec == oec(o.dataset),
          s"${o.algo} on ${o.dataset}: OEC ${ev.oec} != DuckDB recount ${oec(o.dataset)}"))
      }
    } finally duck.close()
  }

  private def untraced(spark: SparkSession, w: Workload, args: Args, checks: Checks): Result = {
    val (inputs, heapMb) = setUp(spark, w, args.seed, checks)
    val firstTimedNs = epochNs()
    val start = System.nanoTime()
    val rounds = mutable.ArrayBuffer.empty[Round]
    while (rounds.size < MinRounds || System.nanoTime() - start < args.seconds * 1000000000L)
      rounds += round(w, inputs)
    val timed = rounds.toSeq
    check(w, inputs, timed, checks)
    inputs.foreach(_.unpersist())

    // per operation, the median over the timed rounds; a stall that hits
    // one operation in one round does not move the sum
    def perOpMedianSum(f: ((RunOutcome, Double)) => Double): Double =
      timed.map(_._2).transpose.map(opRuns => median(opRuns.map(f))).sum
    Result(
      attempted = timed.size.toLong * w.opsPerRound,
      failed = timed.flatMap(_._2).count { case (o, wall) => failedOp(o.algo, o.status, wall) },
      metrics = Seq(
        Metric("pass_s", perOpMedianSum(_._2), "s"),
        Metric("repair_s", perOpMedianSum { case (o, _) => if (o.status == "ok") o.repairSeconds else 0.0 }, "s"),
        Metric("setup_s", (firstTimedNs - args.launchedAtNs) / 1e9, "s"),
        Metric("heap_live_mb", heapMb, "MB"),
      ))
  }
}

/** Output checks on the relations generated from `seed`. A failed check
  * makes the run's `correct` false.
  */
final class Checks(seed: Long) {
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  def check(ok: Boolean, what: => String): Unit = if (!ok) failures += what

  /** Properties every evaluation must have, and the expected outcomes. */
  def outcome(w: Workload, algo: String, dataset: String, status: String,
              eval: Option[RepairEval]): Unit = {
    val at = s"$algo on $dataset"
    // a wall-clock n/a or an err is counted as failed, not as a wrong output
    if (Workloads.expectedNa(algo))
      check(status != "ok", s"$at: finished, but its search-node budget should trip (n/a)")
    check(status != "ok" || eval.isDefined, s"$at: ok without an evaluation")
    eval.foreach { ev =>
      check(ev.edr == (if (ev.oec == 0) 0.0 else (ev.dec - ev.iec).toDouble / ev.oec),
        s"$at: EDR ${ev.edr} != (DEC - IEC) / OEC with ${ev.dec}, ${ev.iec}, ${ev.oec}")
      check(0 <= ev.dec && ev.dec <= ev.oec, s"$at: DEC ${ev.dec} outside [0, OEC ${ev.oec}]")
      check(ev.iec >= 0 && ev.dec + ev.iec <= ev.changed,
        s"$at: DEC ${ev.dec} + IEC ${ev.iec} > changed ${ev.changed}")
      if (w.name == "table4")
        for ((a, ds, pred, what, everySeed) <- Workloads.paperShape
             if a == algo && ds.forall(_ == dataset) && (everySeed || seed == Workloads.ReferenceSeed))
          check(pred(ev.edr), s"$at: paper finding '$what' does not hold (EDR ${ev.edr})")
    }
  }
}

/** Traced run: after the untraced set-up and warm-up, rounds of the
  * pipeline `Harness.runOne` runs, called layer by layer from here so that
  * each call is a span, with the DuckDB recounts and the guard properties
  * checked on every repaired relation. Check work is timed apart and left
  * out of `trace.pass_s`.
  */
final class TracedRun(spark: SparkSession, w: Workload, args: Main.Args, checks: Checks) {
  private val tracer = new Tracer(spark)
  private val duck = new Duck

  private final case class Op(algo: String, status: String, wallS: Double)

  /** Runs one traced round; returns its per-layer figures and operations. */
  private def round(r: Int): (Map[String, Double], Seq[Op]) = {
    val gc0 = Gc.seconds
    val extra = mutable.Map("detect.flagged_cells" -> 0.0, "algos.changed_cells" -> 0.0,
      "guard.reverted_cells" -> 0.0)
    val inputs = w.datasets.map { case (gen, n) =>
      val gd = tracer.span("data", gen.name, r) {
        val gd = Input.generate(spark, gen, n, args.seed)
        gd.dirty.count(); gd.clean.count()
        gd
      }
      val det = tracer.span("detect", gen.name, r)(Input.detect(gd))
      extra("detect.flagged_cells") += det.count()
      duck.load(s"dirty_${gd.name}", gd.dirty, gd.attrs)
      duck.load(s"clean_${gd.name}", gd.clean, gd.attrs)
      duck.loadCells(s"flagged_${gd.name}", det)
      Input(gd, det)
    }
    val passStart = System.nanoTime()
    var checkNs = 0L
    val ops = for (in <- inputs; a <- w.algos) yield {
      val gd = in.gd
      val input = Harness.inputFor(gd, Budget(System.currentTimeMillis() + Main.BudgetMs), Some(in.detections))
      val t0 = System.nanoTime()
      val repaired: Either[String, RepairResult] =
        try Right(tracer.span("algos", a.name, r) {
          val res = a.repair(input)
          res.repaired.cache().count()
          res
        }) catch {
          case _: BudgetExceeded => Left("n/a")
          case _: SimulatedOOM   => Left("n/a*")
          case e: Exception      => Console.err.println(s"[perfbench] ${a.name} on ${gd.name} failed: $e"); Left("err")
        }
      val wallS = (System.nanoTime() - t0) / 1e9
      def guard(res: RepairResult): RepairResult = tracer.span("guard", a.name, r) {
        val g = DetectionGuard.guard(gd.dirty, gd.attrs, res, in.detections)
        g.repaired.cache().count()
        g
      }
      repaired match {
        case Left(status) =>
          checks.outcome(w, a.name, gd.name, status, None)
          Op(a.name, status, wallS)
        case Right(res) =>
          val scored = if (w.guarded) guard(res) else res
          val ev = tracer.span("metrics", a.name, r)(
            Metrics.evaluate(gd.dirty, scored.repaired, gd.clean, gd.attrs, scored.detections))
          val c0 = System.nanoTime()
          // the guard never adds errors and only keeps flagged changes; on
          // unguarded workloads it runs here as a check, outside the pass
          val guarded = if (w.guarded) scored else guard(res)
          checks.outcome(w, a.name, gd.name, "ok", Some(ev))
          val (dirty, clean) = (s"dirty_${gd.name}", s"clean_${gd.name}")
          duck.load("repaired", res.repaired, gd.attrs)
          duck.load("guarded", guarded.repaired, gd.attrs)
          val ru = duck.recount(dirty, "repaired", clean, gd.attrs)
          val rg = duck.recount(dirty, "guarded", clean, gd.attrs)
          val want = if (w.guarded) rg else ru
          val at = s"${a.name} on ${gd.name}"
          checks.check(Recount(ev.oec, ev.dec, ev.iec, ev.changed) == want,
            s"$at: Metrics.evaluate $ev != DuckDB recount $want")
          checks.check(duck.sameTuples(dirty, "repaired") && duck.sameTuples(dirty, "guarded"),
            s"$at: a repaired relation does not keep the tuple-id set")
          val unflagged = duck.changedUnflagged(dirty, "guarded", s"flagged_${gd.name}", gd.attrs)
          checks.check(unflagged == 0, s"$at: the guard kept $unflagged changes on unflagged cells")
          checks.check(rg.iec <= ru.iec, s"$at: guarded IEC ${rg.iec} > unguarded IEC ${ru.iec}")
          extra("algos.changed_cells") += ru.changed
          extra("guard.reverted_cells") += ru.changed - rg.changed
          guarded.repaired.unpersist(); res.repaired.unpersist()
          checkNs += System.nanoTime() - c0
          Op(a.name, "ok", wallS)
      }
    }
    val passS = (System.nanoTime() - passStart - checkNs) / 1e9
    inputs.foreach(_.unpersist())

    val spans = tracer.spans.filter(_.round == r)
    def layer(l: String): Seq[Span] = spans.filter(_.layer == l)
    def secs(l: String): Double = layer(l).map(_.seconds).sum
    def mb(l: String): Double = layer(l).map(_.work.shuffleBytes).sum / 1048576.0
    def jobs(l: String): Double = layer(l).map(_.work.jobs).sum.toDouble
    val inPass = Seq("algos", "metrics") ++ (if (w.guarded) Seq("guard") else Nil)
    val figures = extra.toMap ++ Map(
      "data.s" -> secs("data"),
      "detect.s" -> secs("detect"), "detect.jobs" -> jobs("detect"), "detect.shuffle_mb" -> mb("detect"),
      "algos.s" -> secs("algos"), "algos.jobs" -> jobs("algos"),
      "algos.tasks" -> layer("algos").map(_.work.tasks).sum.toDouble,
      "algos.shuffle_mb" -> mb("algos"),
      "algos.driver_cpu_s" -> layer("algos").map(_.cpuNs).sum / 1e9,
      "algos.task_s" -> layer("algos").map(_.work.taskMs).sum / 1e3,
      "algos.Nadeef.s" -> layer("algos").filter(_.op == "Nadeef").map(_.seconds).sum,
      "guard.s" -> secs("guard"), "guard.jobs" -> jobs("guard"), "guard.shuffle_mb" -> mb("guard"),
      "metrics.s" -> secs("metrics"), "metrics.jobs" -> jobs("metrics"), "metrics.shuffle_mb" -> mb("metrics"),
      "jvm.gc_s" -> (Gc.seconds - gc0),
      "trace.pass_s" -> passS,
      "trace.other_s" -> (passS - inPass.map(secs).sum),
    )
    (figures, ops)
  }

  def run(): Main.Result = try {
    // the same set-up and warm-up as an untraced run, so the traced rounds
    // start from the same state; they generate and detect their own inputs
    val (inputs, _) = Main.setUp(spark, w, args.seed, checks)
    inputs.foreach(_.unpersist())
    val start = System.nanoTime()
    val rounds = mutable.ArrayBuffer.empty[(Map[String, Double], Seq[Op])]
    while (rounds.isEmpty || System.nanoTime() - start < args.seconds * 1000000000L)
      rounds += round(rounds.size + 1)
    writeSpans()
    val names = rounds.head._1.keys.toSeq.sorted
    Main.Result(
      attempted = rounds.size.toLong * w.opsPerRound,
      failed = rounds.flatMap(_._2).count(o => Main.failedOp(o.algo, o.status, o.wallS)),
      metrics = names.map { n =>
        val unit = n.split('.').last match {
          case "s" | "driver_cpu_s" | "task_s" | "gc_s" | "pass_s" | "other_s" => "s"
          case "shuffle_mb" => "MB"
          case _ => "count"
        }
        Main.Metric(n, Main.median(rounds.map(_._1(n)).toSeq), unit)
      })
  } finally duck.close()

  /** Writes every span, one JSON object per line. */
  private def writeSpans(): Unit = {
    val out = new java.io.PrintWriter(args.traceFile)
    try tracer.spans.foreach { s =>
      out.println(s"""{"layer": "${s.layer}", "op": "${s.op}", "round": ${s.round}, """ +
        s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "cpu_ns": ${s.cpuNs}, "jobs": ${s.work.jobs}, """ +
        s""""tasks": ${s.work.tasks}, "shuffle_bytes": ${s.work.shuffleBytes}, "task_ms": ${s.work.taskMs}}""")
    } finally out.close()
  }
}
