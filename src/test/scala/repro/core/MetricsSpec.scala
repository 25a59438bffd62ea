package repro.core

import org.apache.spark.sql.{functions => F}
import repro.{ReproSpec, TestUtil}
import repro.data.GeneratedDataset

class MetricsSpec extends ReproSpec {
  private val attrs = Seq("a", "b")

  // clean:  (1,x) (2,y) (3,z)
  // dirty:  (1,x) (2,BAD) (3,BAD2)   -> OEC = 2
  private def clean = TestUtil.mkDf(spark, attrs)(
    Seq("1", "x"), Seq("2", "y"), Seq("3", "z"))
  private def dirty = TestUtil.mkDf(spark, attrs)(
    Seq("1", "x"), Seq("2", "BAD"), Seq("3", "BAD2"))

  private def repairTo(values: Seq[Seq[String]]) =
    TestUtil.mkDf(spark, attrs)(values: _*)

  test("perfect repair: EDR = 1, F1 = 1") {
    val rep = repairTo(Seq(Seq("1", "x"), Seq("2", "y"), Seq("3", "z")))
    val ev = Metrics.evaluate(dirty, rep, clean, attrs)
    assert(ev.oec === 2); assert(ev.dec === 2); assert(ev.iec === 0)
    assert(ev.edr === 1.0)
    assert(ev.erF1 === 1.0)
    assert(ev.edF1 === 1.0)
  }

  test("no-op repair: EDR = 0, zero F1") {
    val ev = Metrics.evaluate(dirty, dirty, clean, attrs)
    assert(ev.dec === 0); assert(ev.iec === 0); assert(ev.changed === 0)
    assert(ev.edr === 0.0)
    assert(ev.erF1 === 0.0)
  }

  test("half repair: EDR = 0.5") {
    val rep = repairTo(Seq(Seq("1", "x"), Seq("2", "y"), Seq("3", "BAD2")))
    val ev = Metrics.evaluate(dirty, rep, clean, attrs)
    assert(ev.dec === 1); assert(ev.edr === 0.5)
    assert(ev.erPrecision === 1.0)
    assert(ev.erRecall === 0.5)
  }

  test("destructive repair: negative EDR") {
    // breaks both correct a-cells of tuples 1 and 2, fixes nothing
    val rep = repairTo(Seq(Seq("9", "x"), Seq("9", "BAD"), Seq("3", "BAD2")))
    val ev = Metrics.evaluate(dirty, rep, clean, attrs)
    assert(ev.iec === 2); assert(ev.dec === 0)
    assert(ev.edr === -1.0)
  }

  test("error-to-different-error counts as neither DEC nor IEC") {
    val rep = repairTo(Seq(Seq("1", "x"), Seq("2", "STILLBAD"), Seq("3", "BAD2")))
    val ev = Metrics.evaluate(dirty, rep, clean, attrs)
    assert(ev.dec === 0); assert(ev.iec === 0); assert(ev.changed === 1)
    assert(ev.edr === 0.0)
  }

  test("EDR mixes fixes and damage: (DEC-IEC)/OEC") {
    // fixes tuple 2's b, breaks tuple 1's a: (1 - 1) / 2 = 0
    val rep = repairTo(Seq(Seq("OOPS", "x"), Seq("2", "y"), Seq("3", "BAD2")))
    val ev = Metrics.evaluate(dirty, rep, clean, attrs)
    assert(ev.dec === 1); assert(ev.iec === 1)
    assert(ev.edr === 0.0)
  }

  test("explicit detections drive ED metrics") {
    val det = TestUtil.mkDf(spark, Seq("attr"))(Seq("b"))
      .select(F.lit(1L).as(Cells.Tid), F.col("attr")) // flags tid=1,b (an error)
    val ev = Metrics.evaluate(dirty, dirty, clean, attrs, Some(det))
    assert(ev.edPrecision === 1.0)
    assert(ev.edRecall === 0.5)
    assert(ev.edF1 === 2 * 1.0 * 0.5 / 1.5)
  }

  test("false-positive detections hurt ED precision") {
    val det = TestUtil.mkDf(spark, Seq("attr"))(Seq("a"), Seq("b"))
      .select(F.lit(0L).as(Cells.Tid), F.col("attr")) // flags two clean cells
    val ev = Metrics.evaluate(dirty, dirty, clean, attrs, Some(det))
    assert(ev.edPrecision === 0.0)
    assert(ev.edF1 === 0.0)
  }

  test("clean dataset: OEC = 0 and EDR defined as 0") {
    val ev = Metrics.evaluate(clean, clean, clean, attrs)
    assert(ev.oec === 0)
    assert(ev.edr === 0.0)
  }

  /** A hand-built dataset observed as `observed`, its E built as the
    * generators build it.
    */
  private def dataset(observed: Seq[Seq[String]]): GeneratedDataset = {
    val table = Tabular(Array(0L, 1L, 2L), observed.map(_.toArray).toArray, attrs)
    val truth = table.copy(rows = Array(Array("1", "x"), Array("2", "y"), Array("3", "z")))
    GeneratedDataset(spark, "t", Set.empty, Nil, 0.0, Nil, "b", Map.empty, table, table.diff(truth))
  }

  test("errorRate measures cell-level disparity") {
    assert(dataset(Seq(Seq("1", "x"), Seq("2", "BAD"), Seq("3", "BAD2"))).errorRate === 2.0 / 6.0)
    assert(dataset(Seq(Seq("1", "x"), Seq("2", "y"), Seq("3", "z"))).errorRate === 0.0)
  }
}
