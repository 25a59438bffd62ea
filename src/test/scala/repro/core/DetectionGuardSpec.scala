package repro.core

import repro.{ReproSpec, TestUtil}

class DetectionGuardSpec extends ReproSpec {
  private val attrs = Seq("a", "b")

  private def clean = TestUtil.mkDf(spark, attrs)(
    Seq("1", "x"), Seq("2", "y"), Seq("3", "z"))
  private def dirty = TestUtil.mkDf(spark, attrs)(
    Seq("1", "x"), Seq("2", "BAD"), Seq("3", "z"))

  // a destructive "repair": fixes the error but also breaks tuple 0's a
  private def destructive = TestUtil.mkDf(spark, attrs)(
    Seq("OOPS", "x"), Seq("2", "y"), Seq("3", "z"))

  private def detOnly(cells: (Long, String)*) =
    spark.createDataFrame(cells).toDF(Cells.Tid, "attr")

  test("guard keeps changes on detected cells") {
    val res = DetectionGuard.guard(dirty, attrs, SparkCells.result(destructive),
      detOnly((1L, "b")))
    assert(TestUtil.cell(res.repaired, attrs, 1L, "b") === "y")
  }

  test("guard reverts changes on undetected cells") {
    val res = DetectionGuard.guard(dirty, attrs, SparkCells.result(destructive),
      detOnly((1L, "b")))
    assert(TestUtil.cell(res.repaired, attrs, 0L, "a") === "1")
  }

  test("guard improves EDR of a destructive repair") {
    val raw = Metrics.evaluate(dirty, destructive, clean, attrs)
    val res = DetectionGuard.guard(dirty, attrs, SparkCells.result(destructive),
      detOnly((1L, "b")))
    val guarded = Metrics.evaluate(dirty, res.repaired, clean, attrs, res.detections)
    assert(guarded.edr > raw.edr)
    assert(guarded.iec === 0)
  }

  test("guard with empty detections reverts everything") {
    val res = DetectionGuard.guard(dirty, attrs, SparkCells.result(destructive),
      detOnly().limit(0))
    assert(TestUtil.toMap(res.repaired, attrs) === TestUtil.toMap(dirty, attrs))
  }

  test("guarded wrapper renames and requires detections") {
    val inner = new RepairAlgorithm {
      val name = "Dummy"; val category = "Rule-Driven"
      def repair(in: RepairInput) = SparkCells.result(Cells.publish(in.spark, in.table))
    }
    val g = DetectionGuard.guarded(inner)
    assert(g.name === "Dummy+ED")
    val in = RepairInput(spark, Tabular.collect(dirty, attrs), Nil)
    assertThrows[IllegalArgumentException](g.repair(in))
  }

  test("guarded wrapper passes through repairs on detected cells") {
    val fixer = new RepairAlgorithm {
      val name = "Fixer"; val category = "Rule-Driven"
      def repair(in: RepairInput) = SparkCells.result(destructive)
    }
    val in = RepairInput(spark, Tabular.collect(dirty, attrs), Nil,
      flagged = Some(Set((1L, "b"))))
    val res = DetectionGuard.guarded(fixer).repair(in)
    assert(TestUtil.cell(res.repaired, attrs, 1L, "b") === "y")
    assert(TestUtil.cell(res.repaired, attrs, 0L, "a") === "1")
  }
}
