package repro.algos

import repro.{ReproSpec, TestUtil}
import repro.core._

/** Shared fixtures for the rule-driven algorithm suites. */
trait AlgoFixtures { self: ReproSpec =>
  import TestUtil._

  val cityAttrs = Seq("zip", "city", "state")

  /** One typo'd city inside a redundant zip group. */
  def cityDf = mkDf(spark, cityAttrs)(
    Seq("10001", "Springfield", "Illinois"),
    Seq("10001", "Springfield", "Illinois"),
    Seq("10001", "Sprngfield", "Illinois"), // typo, minority
    Seq("10002", "Rivertown", "Ohio"),
    Seq("10002", "Rivertown", "Ohio"),
  )

  def cityClean = mkDf(spark, cityAttrs)(
    Seq("10001", "Springfield", "Illinois"),
    Seq("10001", "Springfield", "Illinois"),
    Seq("10001", "Springfield", "Illinois"),
    Seq("10002", "Rivertown", "Ohio"),
    Seq("10002", "Rivertown", "Ohio"),
  )

  val zipCity = FD(Seq("zip"), "city")

  def inputOf(df: org.apache.spark.sql.DataFrame, rules: Seq[Rule],
              attrs: Seq[String] = cityAttrs): RepairInput =
    RepairInput(spark, "test", df, attrs, rules)
}

class HolisticSpec extends ReproSpec with AlgoFixtures {
  import TestUtil._

  test("fixes a minority typo via its equivalence class majority") {
    val res = Holistic.repair(inputOf(cityDf, Seq(zipCity)))
    assert(cell(res.repaired, cityAttrs, 2L, "city") === "Springfield")
  }

  test("no changes on consistent data") {
    val res = Holistic.repair(inputOf(cityClean, Seq(zipCity)))
    assert(toMap(res.repaired, cityAttrs) === toMap(cityClean, cityAttrs))
  }

  test("count ties break lexicographically (value-blind, destructive)") {
    val df = mkDf(spark, cityAttrs)(
      Seq("1", "Alpha", "X"),
      Seq("1", "Beta", "X"))
    val res = Holistic.repair(inputOf(df, Seq(zipCity)))
    assert(cell(res.repaired, cityAttrs, 0L, "city") === "Alpha")
    assert(cell(res.repaired, cityAttrs, 1L, "city") === "Alpha")
  }

  test("missing-value tokens never win the repair vote") {
    val df = mkDf(spark, cityAttrs)(
      Seq("1", "", "Illinois"),          // tie 1:1, but "" cannot win
      Seq("1", "Springfield", "Illinois"))
    val res = Holistic.repair(inputOf(df, Seq(zipCity)))
    assert(cell(res.repaired, cityAttrs, 0L, "city") === "Springfield")
    assert(cell(res.repaired, cityAttrs, 1L, "city") === "Springfield")
  }

  test("repairs cascade across rounds (repair contexts)") {
    // fixing city via zip->city then enables city->state majority
    val attrs = Seq("zip", "city", "state")
    val df = mkDf(spark, attrs)(
      Seq("1", "Springfield", "Illinois"),
      Seq("1", "Springfield", "Illinois"),
      Seq("1", "Sprngfield", "Nowhere"), // both city and state wrong
      Seq("2", "Springfield", "Illinois"))
    val res = Holistic.repair(inputOf(df, Seq(zipCity, FD(Seq("city"), "state")), attrs))
    assert(cell(res.repaired, attrs, 2L, "city") === "Springfield")
    assert(cell(res.repaired, attrs, 2L, "state") === "Illinois")
  }

  test("order DC repairs high-degree culprits toward block majority") {
    val attrs = Seq("state", "salary", "rate")
    val df = mkDf(spark, attrs)(
      Seq("TX", "50000", "5"),
      Seq("TX", "50000", "5"),
      Seq("TX", "50000", "5"),
      Seq("TX", "50000", "9"), // culprit: conflicts with cheaper salaries below
      Seq("TX", "90000", "8"),
      Seq("TX", "90000", "8"))
    val dc = DC("tax", Seq(
      Pred("state", "=", PredOperand.Attr("state")),
      Pred("salary", ">", PredOperand.Attr("salary"), numeric = true),
      Pred("rate", "<", PredOperand.Attr("rate"), numeric = true)))
    val res = Holistic.repair(RepairInput(spark, "t", df, attrs, Seq(dc)))
    assert(cell(res.repaired, attrs, 3L, "rate") === "5")
  }

  test("budget deadline aborts the run") {
    val in = inputOf(cityDf, Seq(zipCity))
      .copy(budget = Budget(deadlineMs = System.currentTimeMillis() - 1))
    assertThrows[BudgetExceeded](Holistic.repair(in))
  }
}

class BigDansingSpec extends ReproSpec with AlgoFixtures {
  import TestUtil._

  test("GenFix unifies a block on its dominant value") {
    val df = mkDf(spark, cityAttrs)(
      Seq("10001", "Sprngfield", "Illinois"),
      Seq("10001", "Springfield", "Illinois"),
      Seq("10001", "Springfield", "Illinois"))
    val res = BigDansing.repair(inputOf(df, Seq(zipCity)))
    assert(cell(res.repaired, cityAttrs, 0L, "city") === "Springfield")
  }

  test("no changes on consistent data") {
    val res = BigDansing.repair(inputOf(cityClean, Seq(zipCity)))
    assert(toMap(res.repaired, cityAttrs) === toMap(cityClean, cityAttrs))
  }

  test("count ties break toward the lexicographically larger value") {
    val df = mkDf(spark, cityAttrs)(
      Seq("1", "Alpha", "X"),
      Seq("1", "Beta", "X"),
      Seq("2", "Beta", "X"),
      Seq("3", "Beta", "X"))
    val res = BigDansing.repair(inputOf(df, Seq(zipCity)))
    assert(cell(res.repaired, cityAttrs, 0L, "city") === "Beta")
  }

  test("differs from Holistic exactly on tie direction") {
    val df = mkDf(spark, cityAttrs)(
      Seq("1", "Alpha", "X"),
      Seq("1", "Zeta", "X"),
      Seq("2", "Zeta", "X"))
    val h = Holistic.repair(inputOf(df, Seq(zipCity)))
    val b = BigDansing.repair(inputOf(df, Seq(zipCity)))
    assert(cell(h.repaired, cityAttrs, 1L, "city") === "Alpha") // tie: lexic min
    assert(cell(b.repaired, cityAttrs, 0L, "city") === "Zeta")  // tie: lexic max
  }
}

class HorizonSpec extends ReproSpec with AlgoFixtures {
  import TestUtil._

  test("repairs toward the most supported pattern") {
    val res = Horizon.repair(inputOf(cityDf, Seq(zipCity)))
    assert(cell(res.repaired, cityAttrs, 2L, "city") === "Springfield")
  }

  test("leaves unsupported (tied singleton) patterns alone") {
    val df = mkDf(spark, cityAttrs)(
      Seq("1", "Alpha", "X"),
      Seq("1", "Beta", "X"))
    val res = Horizon.repair(inputOf(df, Seq(zipCity)))
    // support < 2: Horizon keeps both values
    assert(toMap(res.repaired, cityAttrs) === toMap(df, cityAttrs))
  }

  test("ignores order DCs entirely") {
    val attrs = Seq("state", "salary", "rate")
    val df = mkDf(spark, attrs)(
      Seq("TX", "90000", "2"),
      Seq("TX", "20000", "5"))
    val dc = DC("tax", Seq(
      Pred("state", "=", PredOperand.Attr("state")),
      Pred("salary", ">", PredOperand.Attr("salary"), numeric = true),
      Pred("rate", "<", PredOperand.Attr("rate"), numeric = true)))
    val res = Horizon.repair(RepairInput(spark, "t", df, attrs, Seq(dc)))
    assert(toMap(res.repaired, attrs) === toMap(df, attrs))
  }

  test("sequential FD passes let repairs feed later dependencies") {
    val attrs = Seq("zip", "city", "state")
    val df = mkDf(spark, attrs)(
      Seq("1", "Springfield", "Illinois"),
      Seq("1", "Springfield", "Illinois"),
      Seq("1", "Sprngfield", "Illinois"),
      Seq("2", "Springfield", "Illinois"),
      Seq("2", "Springfield", "Nowhere"))
    val res = Horizon.repair(inputOf(df, Seq(zipCity, FD(Seq("city"), "state")), attrs))
    assert(cell(res.repaired, attrs, 2L, "city") === "Springfield")
    assert(cell(res.repaired, attrs, 4L, "state") === "Illinois")
  }
}

class NadeefSpec extends ReproSpec with AlgoFixtures {
  import TestUtil._

  test("fixes a minority typo via equivalence classes") {
    val res = Nadeef.repair(inputOf(cityDf, Seq(zipCity)))
    assert(cell(res.repaired, cityAttrs, 2L, "city") === "Springfield")
  }

  test("no changes on consistent data") {
    val res = Nadeef.repair(inputOf(cityClean, Seq(zipCity)))
    assert(toMap(res.repaired, cityAttrs) === toMap(cityClean, cityAttrs))
  }

  test("classes merge across rules and cascade (the destructive trait)") {
    val attrs = Seq("brewery", "city", "state")
    val df = mkDf(spark, attrs)(
      Seq("b1", "Springfield", "Illinois"),
      Seq("b1", "Springfield", "Illinois"),
      Seq("b2", "Springfield", "Iowa"),
      Seq("b2", "Springfield", "Iowa"),
      Seq("b2", "Springfield", "Iowa"))
    // brewery->state groups are internally consistent; city->state merges
    // them into one class and forces a single state everywhere
    val res = Nadeef.repair(inputOf(df,
      Seq(FD(Seq("brewery"), "state"), FD(Seq("city"), "state")), attrs))
    val states = toMap(res.repaired, attrs).values.map(_(2)).toSet
    assert(states.size === 1)
    assert(states.head === "Iowa") // majority 3:2 across the merged class
  }

  test("iterates to a fixpoint within three rounds") {
    val res = Nadeef.repair(inputOf(cityDf, Seq(zipCity, FD(Seq("city"), "state"))))
    // after round 1 the typo city joins the Springfield group; round 2 has
    // nothing left to do — no oscillation
    assert(cell(res.repaired, cityAttrs, 2L, "city") === "Springfield")
    assert(SparkViolations.violatingCells(res.repaired, Seq(zipCity)).count() === 0)
  }
}

class MLNCleanSpec extends ReproSpec with AlgoFixtures {
  import TestUtil._

  test("repairs only high-reliability instantiated rules") {
    // group of 5 with 1 deviant: confidence 0.8 -> repaired
    val df = mkDf(spark, cityAttrs)(
      Seq("1", "Springfield", "Illinois"),
      Seq("1", "Springfield", "Illinois"),
      Seq("1", "Springfield", "Illinois"),
      Seq("1", "Springfield", "Illinois"),
      Seq("1", "Sprngfield", "Illinois"))
    val res = MLNClean.repair(inputOf(df, Seq(zipCity)))
    assert(cell(res.repaired, cityAttrs, 4L, "city") === "Springfield")
  }

  test("skips low-confidence groups (no destructive overwrites)") {
    val df = mkDf(spark, cityAttrs)(
      Seq("1", "Springfield", "Illinois"),
      Seq("1", "Springfield", "Illinois"),
      Seq("1", "Sprngfield", "Illinois"),
      Seq("1", "Spingfield", "Illinois"))
    // majority confidence 0.5 < 0.8 -> untouched
    val res = MLNClean.repair(inputOf(df, Seq(zipCity)))
    assert(toMap(res.repaired, cityAttrs) === toMap(df, cityAttrs))
  }

  test("skips low-support groups") {
    val df = mkDf(spark, cityAttrs)(
      Seq("1", "Springfield", "Illinois"),
      Seq("1", "Springfield", "Illinois"),
      Seq("1", "Sprngfield", "Illinois"))
    // winner support 2 < MinSupport 3 -> untouched
    val res = MLNClean.repair(inputOf(df, Seq(zipCity)))
    assert(toMap(res.repaired, cityAttrs) === toMap(df, cityAttrs))
  }

  test("no changes on consistent data") {
    val res = MLNClean.repair(inputOf(cityClean, Seq(zipCity)))
    assert(toMap(res.repaired, cityAttrs) === toMap(cityClean, cityAttrs))
  }
}

class DaisySpec extends ReproSpec with AlgoFixtures {
  import TestUtil._

  test("commits a fix only when one candidate overwhelmingly dominates") {
    // 299 agreeing values vs one distant outlier clears the 0.9995 bar
    val rows = Seq.fill(299)(Seq("1", "Springfield", "Illinois")) :+
      Seq("1", "zzz", "Illinois")
    val df = mkDf(spark, cityAttrs)(rows: _*)
    val res = Daisy.repair(inputOf(df, Seq(zipCity)))
    assert(cell(res.repaired, cityAttrs, 299L, "city") === "Springfield")
  }

  test("materializes nothing on typical small groups (Table 4's zeros)") {
    val res = Daisy.repair(inputOf(cityDf, Seq(zipCity)))
    assert(toMap(res.repaired, cityAttrs) === toMap(cityDf, cityAttrs))
  }

  test("still reports detections for uncommitted candidates") {
    val res = Daisy.repair(inputOf(cityDf, Seq(zipCity)))
    assert(res.detections.get.count() > 0)
  }

  test("pairwise candidate mass respects the time budget") {
    val rows = (0 until 300).map(i => Seq("1", s"city$i", "X"))
    val df = mkDf(spark, cityAttrs)(rows: _*)
    val in = inputOf(df, Seq(zipCity))
      .copy(budget = Budget(deadlineMs = System.currentTimeMillis() - 1))
    assertThrows[BudgetExceeded](Daisy.repair(in))
  }

  test("edit distance is a metric on samples") {
    assert(Daisy.editDistance("abc", "abc") === 0)
    assert(Daisy.editDistance("abc", "abd") === 1)
    assert(Daisy.editDistance("abc", "") === 3)
    assert(Daisy.editDistance("kitten", "sitting") === 3)
    assert(Daisy.editDistance("ab", "ba") === 2)
  }
}
