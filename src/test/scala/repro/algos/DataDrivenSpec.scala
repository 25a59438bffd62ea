package repro.algos

import repro.{ReproSpec, TestUtil}
import repro.core._
import repro.data.HospitalGen
import repro.detect.Raha

class ScareSpec extends ReproSpec with AlgoFixtures {
  import TestUtil._

  private def detCells(cells: (Long, String)*): Set[Cells.Cell] = cells.toSet

  test("repairs a flagged cell with overwhelming likelihood evidence") {
    // state is perfectly predicted by city; tuple 9's state is flagged
    val rows = (0 until 19).map(i => Seq(s"z$i", if (i % 2 == 0) "A" else "B",
      if (i % 2 == 0) "SA" else "SB")) :+ Seq("z19", "B", "WRONG")
    val df = mkDf(spark, cityAttrs)(rows: _*)
    val in = RepairInput(spark, Tabular.collect(df, cityAttrs), Nil,
      flagged = Some(detCells((19L, "state"))))
    val res = Scare.repair(in)
    assert(cell(res.repaired, cityAttrs, 19L, "state") === "SB")
  }

  test("touches only flagged cells") {
    val rows = (0 until 19).map(i => Seq(s"z$i", if (i % 2 == 0) "A" else "B",
      if (i % 2 == 0) "SA" else "SB")) :+ Seq("z19", "B", "WRONG")
    val df = mkDf(spark, cityAttrs)(rows: _*)
    val in = RepairInput(spark, Tabular.collect(df, cityAttrs), Nil,
      flagged = Some(detCells((0L, "zip")))) // flag a clean cell elsewhere
    val res = Scare.repair(in)
    assert(cell(res.repaired, cityAttrs, 19L, "state") === "WRONG")
  }

  test("conservative threshold keeps weak evidence unchanged") {
    // city barely correlates with state: margin below the repair bar
    val rows = (0 until 16).map(i => Seq(s"z$i", s"c${i % 6}", s"s${i % 4}"))
    val df = mkDf(spark, cityAttrs)(rows: _*)
    val in = RepairInput(spark, Tabular.collect(df, cityAttrs), Nil,
      flagged = Some(detCells((3L, "state"))))
    val res = Scare.repair(in)
    assert(cell(res.repaired, cityAttrs, 3L, "state") === "s3")
  }

  test("falls back to rule violations when no detections are given") {
    val res = Scare.repair(inputOf(cityDf, Seq(zipCity)))
    // must run without error; the conservative bar may or may not repair
    assert(res.repaired.count() === 5)
  }

  test("reports its own (margin-based) detections") {
    val rows = (0 until 19).map(i => Seq(s"z$i", if (i % 2 == 0) "A" else "B",
      if (i % 2 == 0) "SA" else "SB")) :+ Seq("z19", "B", "WRONG")
    val df = mkDf(spark, cityAttrs)(rows: _*)
    val in = RepairInput(spark, Tabular.collect(df, cityAttrs), Nil,
      flagged = Some(detCells((19L, "state"))))
    val res = Scare.repair(in)
    val det = res.detections.get.collect().map(r => (r.getLong(0), r.getString(1))).toSet
    assert(det === Set((19L, "state")))
  }
}

class BaranSpec extends ReproSpec with AlgoFixtures {
  import TestUtil._

  private def detCells(cells: (Long, String)*): Set[Cells.Cell] = cells.toSet

  test("vicinity model repairs a detected cell from co-occurrence") {
    val df = cityDf // tuple 2 has the typo'd city, zip co-occurs
    val in = RepairInput(spark, Tabular.collect(df, cityAttrs), Nil,
      flagged = Some(detCells((2L, "city"))))
    val res = Baran.repair(in)
    assert(cell(res.repaired, cityAttrs, 2L, "city") === "Springfield")
  }

  test("only detected cells are ever touched") {
    val in = RepairInput(spark, Tabular.collect(cityDf, cityAttrs), Nil,
      flagged = Some(detCells((0L, "zip")))) // flag something harmless
    val res = Baran.repair(in)
    assert(cell(res.repaired, cityAttrs, 2L, "city") === "Sprngfield")
  }

  test("value model learns exact corrections from labels") {
    val attrs = Seq("k", "v")
    val df = mkDf(spark, attrs)(
      Seq("a", "oops"), Seq("b", "fine"), Seq("c", "oops"), Seq("d", "fine"))
    // label tuple 0: clean v is "fine"; tuple 2 has the same dirty value
    val labeled = Map((0L, "k") -> "a", (0L, "v") -> "fine")
    val in = RepairInput(spark, Tabular.collect(df, attrs), Nil,
      flagged = Some(detCells((0L, "v"), (2L, "v"))), labeled = labeled)
    val res = Baran.repair(in)
    assert(cell(res.repaired, attrs, 2L, "v") === "fine")
  }

  test("transform library learns format fixes from one labeled example") {
    val attrs = Seq("k", "v")
    val df = mkDf(spark, attrs)(
      Seq("a", "new_york"), Seq("b", "new york"), Seq("c", "boston_common"),
      Seq("d", "boston common"), Seq("e", "new york"))
    // label shows underscores should be spaces
    val labeled = Map((0L, "v") -> "new york", (0L, "k") -> "a")
    val in = RepairInput(spark, Tabular.collect(df, attrs), Nil,
      flagged = Some(detCells((0L, "v"), (2L, "v"))), labeled = labeled)
    val res = Baran.repair(in)
    assert(cell(res.repaired, attrs, 2L, "v") === "boston common")
  }

  test("beats rule-driven EDR on a hospital slice") {
    val gd = HospitalGen.generate(spark, 300, HospitalGen.defaultSpec(17), 17)
    val det = Raha.flag(gd.table, gd.rules, gd.labeled)
    val in = RepairInput(spark, gd.table, gd.rules,
      gd.numericAttrs, Some(det), gd.labeled)
    val baran = Baran.repair(in)
    val evB = Metrics.evaluate(gd.dirty, baran.repaired, gd.clean, gd.attrs, baran.detections)
    info(f"baran hospital-300 EDR=${evB.edr}%.3f erF1=${evB.erF1}%.3f edF1=${evB.edF1}%.3f")
    assert(evB.edr > 0.0, s"Baran should reduce errors, got ${evB.edr}")
  }

  test("respects the wall-clock budget") {
    val in = RepairInput(spark, Tabular.collect(cityDf, cityAttrs), Seq(zipCity),
      budget = Budget(deadlineMs = System.currentTimeMillis() - 1))
    // small inputs may finish between polls; force many detected cells
    val manyRows = (0 until 3000).map(i => Seq(s"z${i % 50}", s"c${i % 40}", s"s${i % 30}"))
    val df = mkDf(spark, cityAttrs)(manyRows: _*)
    val det = (0 until 3000).map(i => (i.toLong, "city")).toSet
    val in2 = in.copy(table = Tabular.collect(df, cityAttrs), flagged = Some(det), rules = Nil)
    assertThrows[BudgetExceeded](Baran.repair(in2))
  }
}
