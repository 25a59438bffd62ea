package repro.core

import org.apache.spark.sql.DataFrame
import repro.{ReproSpec, SparkJobs}
import repro.algos.{Algorithms, MLNClean, Nadeef, Relative}
import repro.data.HospitalGen
import repro.detect.Raha

class HarnessSpec extends ReproSpec {

  private def miniHospital = HospitalGen.generate(spark, 150, HospitalGen.defaultSpec(31), 31)

  test("runOne returns ok with metrics for a fast algorithm") {
    val gd = miniHospital
    val o = Harness.runOne(MLNClean, gd, budgetMs = 120000)
    assert(o.status === "ok")
    assert(o.eval.isDefined)
    assert(o.repairSeconds > 0)
  }

  test("runOne maps BudgetExceeded to n/a") {
    val gd = miniHospital
    // Relative's node budget trips on hospital's rule count
    val o = Harness.runOne(Relative, gd, budgetMs = 120000)
    assert(o.status === "n/a")
    assert(o.eval.isEmpty)
    // a counted-budget trip reports the time it took, not the wall-clock budget
    assert(o.repairSeconds > 0 && o.repairSeconds < 30, s"${o.repairSeconds}s")
  }

  test("runOne keeps a driver-side result on the driver: no Spark job, one when guarded") {
    val gd = miniHospital
    val det = Raha.detect(gd.dirty, gd.attrs, gd.rules, gd.labeled)
    def run(algo: RepairAlgorithm) = SparkJobs.count(spark)(
      Harness.runOne(algo, gd, budgetMs = 120000, precomputedDetections = Some(det)))
    val (plain, plainJobs) = run(Nadeef)
    assert(plain.status === "ok")
    assert(plainJobs === 0)
    // the dataset resolved the detections in the first run
    val (guarded, guardedJobs) = run(DetectionGuard.guarded(Nadeef))
    assert(guarded.status === "ok")
    assert(guardedJobs <= 1)
    det.unpersist()
  }

  test("runOne collects one detection relation once per dataset, and another one anew") {
    val gd = miniHospital
    val det = Raha.detect(gd.dirty, gd.attrs, gd.rules, gd.labeled).localCheckpoint()
    def run(detections: DataFrame) = SparkJobs.count(spark)(Harness.runOne(
      DetectionGuard.guarded(Nadeef), gd, budgetMs = 120000, precomputedDetections = Some(detections)))
    val (first, firstJobs) = run(det)
    val (second, secondJobs) = run(det)
    assert(first.status === "ok" && second.status === "ok")
    assert(firstJobs + secondJobs === 1)
    assert(secondJobs === 0)
    assert(second.eval === first.eval)
    assert(first.eval.get.changed > 0)
    // no cell of the new relation is flagged, so the guard keeps no change
    val (third, _) = run(Cells.cellFrame(spark, Set.empty))
    assert(third.status === "ok")
    assert(third.eval.get.changed === 0)
    det.unpersist()
  }

  test("runOne runs no Spark job for any of the twelve algorithms") {
    val gd = miniHospital
    val det = Raha.detect(gd.dirty, gd.attrs, gd.rules, gd.labeled)
    for (algo <- Algorithms.all) {
      val (o, jobs) = SparkJobs.count(spark)(
        Harness.runOne(algo, gd, budgetMs = 120000, precomputedDetections = Some(det)))
      assert(o.status === (if (algo eq Relative) "n/a" else "ok"), algo.name)
      assert(jobs === 0, algo.name)
    }
  }

  test("runOne reads n/a for a repair that returns over budget inside the grace window") {
    val gd = miniHospital
    val slow = new RepairAlgorithm {
      val name = "Slow"; val category = "Test"
      def repair(in: RepairInput) = { Thread.sleep(1500); RepairResult(in.spark, in.table, None) }
    }
    val o = Harness.runOne(slow, gd, budgetMs = 1000)
    assert(o.status === "n/a")
    assert(o.eval.isEmpty)
    assert(o.repairSeconds >= 1.0, s"${o.repairSeconds}s")
  }

  test("runOne detects on the driver: no Spark job without precomputed detections") {
    val gd = miniHospital
    val (o, jobs) = SparkJobs.count(spark)(Harness.runOne(Nadeef, gd, budgetMs = 120000))
    assert(o.status === "ok")
    assert(jobs === 0)
  }

  test("runOne maps SimulatedOOM to n/a*") {
    val gd = miniHospital
    val oom = new RepairAlgorithm {
      val name = "OOMy"; val category = "Test"
      def repair(in: RepairInput) = { Thread.sleep(200); throw new SimulatedOOM("boom") }
    }
    val o = Harness.runOne(oom, gd, budgetMs = 120000)
    assert(o.status === "n/a*")
    // an n/a* run reports the time it took, not 0
    assert(o.repairSeconds >= 0.2, s"${o.repairSeconds}s")
  }

  test("runOne survives arbitrary algorithm failures as err") {
    val gd = miniHospital
    val bad = new RepairAlgorithm {
      val name = "Crashy"; val category = "Test"
      def repair(in: RepairInput) = throw new IllegalStateException("nope")
    }
    val o = Harness.runOne(bad, gd, budgetMs = 120000)
    assert(o.status === "err")
  }

  test("fmt renders metric or status") {
    val ok = Harness.RunOutcome("A", "c", "d", "ok",
      Some(RepairEval(1, 1, 0, 1, 0.5, 1, 1, 1, 1, 1, 1)), 1.0)
    assert(ok.fmt(_.edr) === "0.5000")
    val na = ok.copy(status = "n/a", eval = None)
    assert(na.fmt(_.edr) === "n/a")
  }

  test("renderTable4 lays out three metric blocks") {
    val o = Harness.RunOutcome("A", "c", "D1", "ok",
      Some(RepairEval(1, 1, 0, 1, 1.0, 1, 1, 1, 1, 1, 1)), 1.0)
    val s = Harness.renderTable4(Seq(o))
    assert(s.contains("EDR") && s.contains("ER_F1") && s.contains("ED_F1"))
    assert(s.contains("D1"))
  }

  test("renderTable6 prints seconds for ok and raw status otherwise") {
    val rows = Seq(
      Harness.RunOutcome("A", "c", "Tax-1000", "ok", None, 2.5),
      Harness.RunOutcome("B", "c", "Tax-1000", "n/a*", None, 0.0))
    val s = Harness.renderTable6(rows)
    assert(s.contains("2.5s"))
    assert(s.contains("n/a*"))
  }

  test("table5 reports measured characteristics") {
    val stats = Harness.table5(spark, seed = 31, taxRows = 1500)
    assert(stats.map(_.name) === Seq("Hospital", "Flights", "Beers", "Rayyan", "Tax"))
    val hosp = stats.head
    assert(hosp.tuples === 1000 && hosp.attrs === 20)
    assert(hosp.errorRate > 0.015 && hosp.errorRate < 0.045)
    val flights = stats(1)
    assert(flights.errorRate > 0.2 && flights.errorRate < 0.4)
  }

  test("inputFor wires detections, labels, and target") {
    val gd = miniHospital
    val in = Harness.inputFor(gd)
    assert(in.flagged === Some(Raha.flag(gd.table, gd.rules, gd.labeled)))
    assert(in.labeled.nonEmpty)
    assert(in.classTarget === Some("condition"))
    assert(in.rules.nonEmpty)
  }
}
