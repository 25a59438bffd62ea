package repro

import repro.algos._
import repro.core._
import repro.data.{BeersGen, HospitalGen, RayyanGen}
import repro.detect.Raha

/** Cross-algorithm integration checks at reduced scale: the qualitative
  * relationships the paper reports must hold end-to-end.
  */
class IntegrationSpec extends ReproSpec {

  private def runEval(algo: RepairAlgorithm, gd: repro.data.GeneratedDataset,
                      det: org.apache.spark.sql.DataFrame): RepairEval = {
    val in = RepairInput(spark, gd.table, gd.rules,
      gd.numericAttrs, Some(det), gd.labeled, Some(gd.classTarget))
    val res = algo.repair(in)
    Metrics.evaluate(gd.dirty, res.repaired, gd.clean, gd.attrs, res.detections)
  }

  test("hospital: data-aware methods beat blanket imputation (Table 4 ordering)") {
    val gd = HospitalGen.generate(spark, 400, HospitalGen.defaultSpec(41), 41)
    val det = Raha.detect(gd.dirty, gd.attrs, gd.rules, gd.labeled).cache()
    val baran = runEval(Baran, gd, det)
    val mln   = runEval(MLNClean, gd, det)
    val boost = runEval(BoostClean, gd, det)
    info(f"hospital-400 EDR: baran=${baran.edr}%.3f mln=${mln.edr}%.3f boost=${boost.edr}%.3f")
    assert(baran.edr > 0, "Baran should reduce errors on Hospital")
    assert(mln.edr > 0, "MLNClean should reduce errors on Hospital")
    assert(boost.edr < mln.edr, "BoostClean should trail MLNClean")
    det.unpersist()
  }

  test("daisy and scare leave the data essentially untouched (EDR ~ 0 rows)") {
    val gd = BeersGen.generate(spark, 300, BeersGen.defaultSpec(43), 43)
    val det = Raha.detect(gd.dirty, gd.attrs, gd.rules, gd.labeled).cache()
    val daisy = runEval(Daisy, gd, det)
    val scare = runEval(Scare, gd, det)
    assert(math.abs(daisy.edr) < 0.05, s"daisy EDR ${daisy.edr}")
    assert(math.abs(scare.edr) < 0.05, s"scare EDR ${scare.edr}")
    det.unpersist()
  }

  test("detection guard lifts a destructive rule-driven method (Sec 4.4)") {
    val gd = RayyanGen.generate(spark, 300, RayyanGen.defaultSpec(47), 47)
    val det = Raha.detect(gd.dirty, gd.attrs, gd.rules, gd.labeled).cache()
    val in = RepairInput(spark, gd.table, gd.rules,
      gd.numericAttrs, Some(det), gd.labeled, Some(gd.classTarget))
    val raw = Nadeef.repair(in)
    val guarded = DetectionGuard.guarded(Nadeef).repair(in)
    val evRaw = Metrics.evaluate(gd.dirty, raw.repaired, gd.clean, gd.attrs, raw.detections)
    val evG = Metrics.evaluate(gd.dirty, guarded.repaired, gd.clean, gd.attrs, guarded.detections)
    info(f"rayyan-300 nadeef EDR raw=${evRaw.edr}%.3f guarded=${evG.edr}%.3f")
    assert(evG.edr >= evRaw.edr, "guard must never hurt EDR here")
    det.unpersist()
  }

  test("all twelve algorithms run or fail gracefully on a tiny beers slice") {
    val gd = BeersGen.generate(spark, 120, BeersGen.defaultSpec(53), 53)
    val det = Raha.detect(gd.dirty, gd.attrs, gd.rules, gd.labeled).cache()
    for (algo <- Algorithms.all) {
      val in = RepairInput(spark, gd.table, gd.rules,
        gd.numericAttrs, Some(det), gd.labeled, Some(gd.classTarget),
        budget = Budget.timeLimit(120000))
      try {
        val res = algo.repair(in)
        assert(res.repaired.count() === 120, s"${algo.name} changed cardinality")
      } catch {
        case _: BudgetExceeded => // Relative's expected n/a
      }
    }
    det.unpersist()
  }

  test("every result scores alike from its driver fields and from its relations") {
    val gd = BeersGen.generate(spark, 120, BeersGen.defaultSpec(53), 53)
    val det = Raha.detect(gd.dirty, gd.attrs, gd.rules, gd.labeled).cache()
    for (algo <- Algorithms.all; run <- Seq(algo, DetectionGuard.guarded(algo))) {
      val in = RepairInput(spark, gd.table, gd.rules,
        gd.numericAttrs, Some(det), gd.labeled, Some(gd.classTarget),
        budget = Budget.timeLimit(120000))
      try {
        val res = run.repair(in)
        assert(Metrics.score(gd.errors, gd.table.diff(res.table), res.flagged) ===
          Metrics.evaluate(gd.dirty, res.repaired, gd.clean, gd.attrs, res.detections), run.name)
      } catch {
        case _: BudgetExceeded => assert(algo eq Relative, s"${run.name} tripped a budget")
      }
    }
    det.unpersist()
  }

  test("registry covers the paper's twelve algorithms with categories") {
    assert(Algorithms.all.size === 12)
    val cats = Algorithms.all.groupBy(_.category).view.mapValues(_.size).toMap
    assert(cats("Rule-Driven") === 6)
    assert(cats("Data-Driven") === 2)
    assert(cats("Rule&Data-Driven") === 3)
    assert(cats("Model-Driven") === 1)
  }
}
