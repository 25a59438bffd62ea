package repro.algos

import repro.{ReproSpec, TestUtil}
import repro.core._

class UnifiedSpec extends ReproSpec with AlgoFixtures {
  import TestUtil._

  test("repairs data when deviation mass is below the rule-repair cost") {
    val res = Unified.repair(inputOf(cityDf, Seq(zipCity)))
    assert(cell(res.repaired, cityAttrs, 2L, "city") === "Springfield")
  }

  test("repairs the rule (not the data) once violations dominate") {
    // 12 groups, each hopelessly split: deviation mass >> rule cost
    val rows = (0 until 24).map(i => Seq(s"z${i / 2}", s"city$i", "X"))
    val df = mkDf(spark, cityAttrs)(rows: _*)
    val res = Unified.repair(inputOf(df, Seq(zipCity)))
    assert(toMap(res.repaired, cityAttrs) === toMap(df, cityAttrs))
  }

  test("per-rule decision: one rule repaired, another dropped") {
    val attrs = Seq("zip", "city", "flag")
    val rows =
      // zip->city: one clean majority group with a single typo
      Seq(Seq("1", "Springfield", "a"), Seq("1", "Springfield", "b"),
        Seq("1", "Springfield", "c"), Seq("1", "Sprngfield", "d")) ++
      // city->flag would need rewriting nearly every tuple
      (0 until 20).map(i => Seq("2", "Rivertown", s"f$i"))
    val df = mkDf(spark, attrs)(rows: _*)
    val res = Unified.repair(
      inputOf(df, Seq(FD(Seq("zip"), "city"), FD(Seq("city"), "flag")), attrs))
    assert(cell(res.repaired, attrs, 3L, "city") === "Springfield") // repaired
    val flags = toMap(res.repaired, attrs).values.map(_(2)).toSet
    assert(flags.size === 24) // untouched: rule was dropped
  }

  test("no changes on consistent data") {
    val res = Unified.repair(inputOf(cityClean, Seq(zipCity)))
    assert(toMap(res.repaired, cityAttrs) === toMap(cityClean, cityAttrs))
  }
}

class RelativeSpec extends ReproSpec with AlgoFixtures {
  import TestUtil._

  test("tiny search space: behaves like minimal FD repair") {
    val res = Relative.repair(inputOf(cityDf, Seq(zipCity)), maxNodes = 500)
    assert(cell(res.repaired, cityAttrs, 2L, "city") === "Springfield")
  }

  test("prefers extending the rule when it voids the data cost") {
    // zip->state looks violated, but zip+city->state holds perfectly:
    // the relative-trust search extends the LHS and repairs nothing
    val attrs = Seq("zip", "city", "state")
    val df = mkDf(spark, attrs)(
      Seq("1", "A", "X"), Seq("1", "A", "X"),
      Seq("1", "B", "Y"), Seq("1", "B", "Y"),
      Seq("2", "C", "Z"), Seq("2", "C", "Z"))
    val res = Relative.repair(
      RepairInput(spark, "t", df, attrs, Seq(FD(Seq("zip"), "state"))), maxNodes = 500)
    assert(toMap(res.repaired, attrs) === toMap(df, attrs))
  }

  test("composite LHS keys do not collide across value boundaries") {
    // ("ab", "c") and ("a", "bc") concatenate alike; they are two groups,
    // so a+b->c is not violated and nothing may change
    val attrs = Seq("a", "b", "c")
    val df = mkDf(spark, attrs)(Seq("ab", "c", "x"), Seq("a", "bc", "y"))
    val in = RepairInput(spark, "t", df, attrs, Seq(FD(Seq("a", "b"), "c")))
    assert(in.table.groupBy(Seq("a", "b")).size === 2)
    assert(toMap(Relative.repair(in, maxNodes = 500).repaired, attrs) === toMap(df, attrs))
  }

  test("node budget trips on larger rule sets (the n/a of Tables 4 and 6)") {
    val gd = repro.data.HospitalGen.generate(spark, 120, repro.data.HospitalGen.defaultSpec(19), 19)
    try {
      val in = RepairInput(spark, gd.name, gd.dirty, gd.attrs, gd.rules)
      assertThrows[BudgetExceeded](Relative.repair(in, maxNodes = 200))
    } finally gd.unpersist()
  }

  test("no rules: identity") {
    val res = Relative.repair(inputOf(cityDf, Nil), maxNodes = 10)
    assert(toMap(res.repaired, cityAttrs) === toMap(cityDf, cityAttrs))
  }
}

class HoloCleanSpec extends ReproSpec with AlgoFixtures {
  import TestUtil._

  test("repairs a violation cell using co-occurrence + rule support") {
    val res = HoloClean.repair(inputOf(cityDf, Seq(zipCity)))
    assert(cell(res.repaired, cityAttrs, 2L, "city") === "Springfield")
  }

  test("fills missing values from co-occurring tuples") {
    val df = mkDf(spark, cityAttrs)(
      Seq("10001", "Springfield", "Illinois"),
      Seq("10001", "Springfield", "Illinois"),
      Seq("10001", "", "Illinois"))
    val res = HoloClean.repair(inputOf(df, Seq(zipCity)))
    assert(cell(res.repaired, cityAttrs, 2L, "city") === "Springfield")
  }

  test("rewrites rare-but-correct values on low-redundancy data (the Beers trap)") {
    // near-unique name column: the rare-value detector flags everything and
    // inference rewrites toward co-occurring mates
    val attrs = Seq("brewery", "name")
    val rows = Seq(
      Seq("b1", "Hoppy Trail"), Seq("b1", "Hoppy Trail"), Seq("b1", "Golden Canyon"))
    val df = mkDf(spark, attrs)(rows: _*)
    val res = HoloClean.repair(RepairInput(spark, "t", df, attrs, Nil))
    // "Golden Canyon" (freq 1) is flagged and overwritten by the mates' value
    assert(cell(res.repaired, attrs, 2L, "name") === "Hoppy Trail")
  }

  test("cell budget raises the simulated OOM (Table 6's n/a*)") {
    val gd = repro.data.TaxGen.generate(spark, 1000, repro.data.TaxGen.defaultSpec(23), 23)
    try {
      val in = RepairInput(spark, gd.name, gd.dirty, gd.attrs, gd.rules,
        gd.numericAttrs, budget = Budget(maxCells = 1000))
      assertThrows[SimulatedOOM](HoloClean.repair(in))
    } finally gd.unpersist()
  }

  test("reports its internal detections") {
    val res = HoloClean.repair(inputOf(cityDf, Seq(zipCity)))
    val det = res.detections.get.collect().map(r => (r.getLong(0), r.getString(1))).toSet
    assert(det.contains((2L, "city")))
  }

  test("never repairs toward a missing-value token") {
    val df = mkDf(spark, cityAttrs)(
      Seq("10001", "", "Illinois"),
      Seq("10001", "", "Illinois"),
      Seq("10001", "Springfield", "Illinois"))
    val res = HoloClean.repair(inputOf(df, Seq(zipCity)))
    assert(cell(res.repaired, cityAttrs, 2L, "city") === "Springfield")
  }
}

class BoostCleanSpec extends ReproSpec with AlgoFixtures {
  import TestUtil._

  private val attrs = Seq("f1", "f2", "label")

  test("imputes flagged cells and helps the downstream model") {
    // f1 predicts label; f1 has missing values that imputation can settle
    val rows = (0 until 40).map { i =>
      val f1 = if (i % 10 == 9) "" else (i % 2).toString
      Seq(f1, s"n$i", s"c${i % 2}")
    }
    val df = mkDf(spark, attrs)(rows: _*)
    val in = RepairInput(spark, "t", df, attrs, Nil, classTarget = Some("label"))
    val res = BoostClean.repair(in)
    val out = toMap(res.repaired, attrs)
    // every explicit MV in f1 is rewritten by the mode action
    assert(out.values.forall(_(0) != ""))
  }

  test("changes concentrate on detector-flagged cells") {
    val rows = (0 until 40).map { i =>
      val f1 = if (i % 10 == 9) "" else (i % 2).toString
      Seq(f1, s"n$i", s"c${i % 2}")
    }
    val df = mkDf(spark, attrs)(rows: _*)
    val in = RepairInput(spark, "t", df, attrs, Nil, classTarget = Some("label"))
    val res = BoostClean.repair(in)
    val changed = SparkCells.changedCells(df, res.repaired, attrs).collect()
    assert(changed.forall(r => r.getString(1) != "label"))
  }

  test("whole-column near-unique attributes get stomped (negative EDR trait)") {
    val rows = (0 until 40).map { i =>
      Seq((i % 2).toString, s"unique$i", s"c${i % 2}")
    }
    val df = mkDf(spark, attrs)(rows: _*)
    val in = RepairInput(spark, "t", df, attrs, Nil, classTarget = Some("label"))
    val res = BoostClean.repair(in)
    val f2vals = toMap(res.repaired, attrs).values.map(_(1)).toSet
    // the rare-value detector flags every f2 cell; mode imputation
    // collapses the column when its action survives validation
    assert(f2vals.size < 40)
  }

  test("detections cover the cells its actions rewrote") {
    val rows = (0 until 40).map { i =>
      val f1 = if (i % 10 == 9) "" else (i % 2).toString
      Seq(f1, s"n$i", s"c${i % 2}")
    }
    val df = mkDf(spark, attrs)(rows: _*)
    val in = RepairInput(spark, "t", df, attrs, Nil, classTarget = Some("label"))
    val res = BoostClean.repair(in)
    val det = res.detections.get.collect().map(r => (r.getLong(0), r.getString(1))).toSet
    val changed = SparkCells.changedCells(df, res.repaired, attrs).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    assert(changed.subsetOf(det))
  }
}
