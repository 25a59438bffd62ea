package repro

import repro.core._
import repro.data._
import repro.algos._
import repro.detect.Raha

/** End-to-end smoke: one tiny dataset through the full pipeline. */
class SmokeSpec extends SparkSpec {

  test("hospital mini pipeline runs and improves with MLNClean") {
    val gd = HospitalGen.generate(spark, 200, HospitalGen.defaultSpec(1), 1)
    val in = RepairInput(spark, gd.table, gd.rules,
      gd.numericAttrs, None, gd.labeled, Some(gd.classTarget))
    val res = MLNClean.repair(in)
    val ev = Metrics.evaluate(gd.dirty, res.repaired, gd.clean, gd.attrs, res.detections)
    assert(ev.oec > 0)
    info(s"MLNClean mini-hospital: $ev")
  }

  test("raha detects a reasonable share of errors") {
    val gd = HospitalGen.generate(spark, 200, HospitalGen.defaultSpec(1), 1)
    val det = Raha.detect(gd.dirty, gd.attrs, gd.rules, gd.labeled)
    val n = det.count()
    info(s"raha flagged $n cells")
    assert(n > 0)
  }
}
