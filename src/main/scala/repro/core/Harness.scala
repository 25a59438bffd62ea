package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{DataGen, Datasets, GeneratedDataset}
import repro.detect.Raha

/** Shared experiment harness for Tables 4, 5 and 6 (used by the `bench/`
  * suites).
  *
  * Each run executes inside a dedicated thread with a Spark job group so
  * the paper's 24 h timeout can be reproduced at a configurable scale:
  * on expiry the job group is cancelled and the cell is reported "n/a";
  * a [[SimulatedOOM]] is reported "n/a*" (HoloClean on large Tax subsets,
  * as in Table 6).
  */
object Harness {

  /** Outcome of one (algorithm, dataset) run. */
  final case class RunOutcome(
      algo: String,
      category: String,
      dataset: String,
      status: String, // "ok" | "n/a" | "n/a*" | "err"
      eval: Option[RepairEval],
      repairSeconds: Double,
  ) {
    def fmt(metric: RepairEval => Double): String = status match {
      case "ok" => f"${eval.map(metric).getOrElse(0.0)}%.4f"
      case s    => s
    }
  }

  /** Build the full [[RepairInput]] for a generated dataset, including
    * Raha detections for the data-driven algorithms (Section 4.1:
    * "the results of the state-of-the-art error detection methods Raha
    * are adopted as inputs").
    */
  def inputFor(gd: GeneratedDataset, budget: Budget = Budget.unlimited,
               precomputedDetections: Option[DataFrame] = None): RepairInput = {
    val spark = gd.dirty.sparkSession
    val det = precomputedDetections.getOrElse(detections(gd))
    RepairInput(spark, gd.name, gd.dirty, gd.attrs, gd.rules, gd.numericAttrs,
      Some(det), gd.labeled, Some(gd.classTarget), budget, Some(gd.table))
  }

  /** Raha's detections on the generator's driver table, as a local
    * relation: no Spark job builds it or collects it.
    */
  private def detections(gd: GeneratedDataset): DataFrame =
    Cells.cellFrame(gd.dirty.sparkSession, Raha.flag(gd.table, gd.rules, gd.labeled))

  /** Run one algorithm on one dataset under a wall-clock budget. A run
    * whose repair takes longer than `budgetMs` reads n/a, also when it
    * returns inside the grace window; every n/a reports the run's real
    * elapsed seconds.
    */
  def runOne(algo: RepairAlgorithm, gd: GeneratedDataset, budgetMs: Long,
             maxCells: Long = Long.MaxValue,
             precomputedDetections: Option[DataFrame] = None): RunOutcome = {
    val spark = gd.dirty.sparkSession
    val budget = Budget(System.currentTimeMillis() + budgetMs, maxCells)
    val in = inputFor(gd, budget, precomputedDetections)
    val groupId = s"${algo.name}-${gd.name}-${System.nanoTime()}"

    @volatile var result: Option[Either[Throwable, (RepairResult, Double)]] = None
    val start = System.nanoTime()
    def elapsed: Double = (System.nanoTime() - start) / 1e9
    val t = new Thread(() => {
      try {
        spark.sparkContext.setJobGroup(groupId, s"${algo.name} on ${gd.name}",
          interruptOnCancel = true)
        val res = algo.repair(in)
        result = Some(Right((res, elapsed)))
      } catch {
        case e: Throwable => result = Some(Left(e))
      } finally spark.sparkContext.clearJobGroup()
    }, groupId)
    t.setDaemon(true)
    t.start()
    // grace window lets Spark-side work of an about-to-finish run drain
    t.join(budgetMs + 30000)

    result match {
      case None =>
        val secs = elapsed
        spark.sparkContext.cancelJobGroup(groupId)
        t.interrupt()
        t.join(10000)
        RunOutcome(algo.name, algo.category, gd.name, "n/a", None, secs)
      case Some(Left(_: BudgetExceeded)) =>
        RunOutcome(algo.name, algo.category, gd.name, "n/a", None, elapsed)
      case Some(Left(_: SimulatedOOM)) =>
        RunOutcome(algo.name, algo.category, gd.name, "n/a*", None, 0.0)
      case Some(Left(e)) =>
        Console.err.println(s"[Harness] ${algo.name} on ${gd.name} failed: $e")
        RunOutcome(algo.name, algo.category, gd.name, "err", None, 0.0)
      case Some(Right((_, secs))) if secs * 1e3 > budgetMs =>
        RunOutcome(algo.name, algo.category, gd.name, "n/a", None, secs)
      case Some(Right((res, secs))) =>
        val ev = Metrics.score(gd.errors, gd.table.diff(res.table), res.flagged)
        RunOutcome(algo.name, algo.category, gd.name, "ok", Some(ev), secs)
    }
  }

  // ---------- Table 4 ----------

  /** Run `algos` over the four real-world-profile datasets. */
  def table4(spark: SparkSession, algos: Seq[RepairAlgorithm], budgetMs: Long,
             seed: Long = 7): Seq[RunOutcome] = {
    val datasets = Datasets.generateRealWorld(spark, seed)
    val out = for (gd <- datasets) yield {
      val det = detections(gd)
      val rows = algos.map { a =>
        Console.err.println(s"[Table4] ${a.name} on ${gd.name} ...")
        runOne(a, gd, budgetMs, precomputedDetections = Some(det))
      }
      gd.unpersist()
      rows
    }
    out.flatten
  }

  /** Render Table 4: one block per metric, datasets as rows. */
  def renderTable4(outcomes: Seq[RunOutcome]): String = {
    val algos = outcomes.map(o => (o.algo, o.category)).distinct
    val datasets = outcomes.map(_.dataset).distinct
    def block(title: String, metric: RepairEval => Double): String = {
      val header = ("Metric" +: "Dataset" +: algos.map(_._1)).mkString("\t")
      val lines = datasets.map { d =>
        val cells = algos.map { case (a, _) =>
          outcomes.find(o => o.algo == a && o.dataset == d).map(_.fmt(metric)).getOrElse("-")
        }
        (title +: d +: cells).mkString("\t")
      }
      (header +: lines).mkString("\n")
    }
    Seq(
      block("EDR", _.edr),
      block("ER_F1", _.erF1),
      block("ED_F1", _.edF1),
    ).mkString("\n\n")
  }

  // ---------- Table 5 ----------

  /** Measured dataset characteristics (Table 5). */
  final case class DatasetStats(name: String, tuples: Long, attrs: Int,
                                errorRate: Double, errorTypes: Seq[String])

  def table5(spark: SparkSession, seed: Long = 7,
             taxRows: Int = 20000): Seq[DatasetStats] = {
    val gds = Datasets.generateRealWorld(spark, seed) :+
      Datasets.taxSubset(spark, taxRows, seed)
    gds.map { gd =>
      val st = DatasetStats(gd.name, gd.table.tids.length.toLong, gd.attrs.size,
        gd.errorRate, gd.errorTypes)
      gd.unpersist()
      st
    }
  }

  def renderTable5(stats: Seq[DatasetStats]): String = {
    val header = Seq("Name", "#Tuples", "#Attrs", "Error Rate", "Error Types").mkString("\t")
    (header +: stats.map(s =>
      Seq(s.name, s.tuples.toString, s.attrs.toString,
        f"${s.errorRate * 100}%.1f%%", s.errorTypes.mkString(", ")).mkString("\t")))
      .mkString("\n")
  }

  // ---------- Table 6 ----------

  /** Runtime scaling over nested Tax subsets. Once an algorithm reports
    * n/a (or n/a*) at a size, larger sizes are skipped with the same
    * status — matching the paper's reporting.
    */
  def table6(spark: SparkSession, algos: Seq[RepairAlgorithm], sizes: Seq[Int],
             budgetMs: Long, holoCleanMaxCells: Long, seed: Long = 7): Seq[RunOutcome] = {
    val dead = scala.collection.mutable.Map.empty[String, String]
    val rows = for (n <- sizes) yield {
      val gd = Datasets.taxSubset(spark, n, seed)
      val det = detections(gd)
      val out = algos.map { a =>
        dead.get(a.name) match {
          case Some(status) =>
            RunOutcome(a.name, a.category, s"Tax-$n", status, None, 0.0)
          case None =>
            Console.err.println(s"[Table6] ${a.name} on Tax-$n ...")
            val cellBudget = if (a.name == "HoloClean") holoCleanMaxCells else Long.MaxValue
            val o = runOne(a, gd, budgetMs, cellBudget, Some(det))
              .copy(dataset = s"Tax-$n")
            if (o.status == "n/a" || o.status == "n/a*") dead(a.name) = o.status
            o
        }
      }
      gd.unpersist()
      out
    }
    rows.flatten
  }

  def renderTable6(outcomes: Seq[RunOutcome]): String = {
    val algos = outcomes.map(_.algo).distinct
    val datasets = outcomes.map(_.dataset).distinct
    val header = ("DataSet" +: algos).mkString("\t")
    val lines = datasets.map { d =>
      val cells = algos.map { a =>
        outcomes.find(o => o.algo == a && o.dataset == d).map {
          case o if o.status == "ok" => f"${o.repairSeconds}%.1fs"
          case o                     => o.status
        }.getOrElse("-")
      }
      (d +: cells).mkString("\t")
    }
    (header +: lines).mkString("\n")
  }
}
