package repro.core

import org.apache.spark.sql.{functions => F}
import repro.{Oracle, ReproSpec, TestUtil}

class ViolationsSpec extends ReproSpec {
  import TestUtil._

  private val fdGender = FD(Seq("LastName"), "Gender")
  private val fdState  = FD(Seq("City"), "State")
  private val dcCityState = DC("city_state", Seq(
    Pred("City", "=", PredOperand.Attr("City")),
    Pred("State", "!=", PredOperand.Attr("State"))))

  test("fdViolatingGroups finds the Nash group (paper Example 2.3)") {
    val g = SparkViolations.fdViolatingGroups(inhabitants(spark), fdGender).collect()
    assert(g.length === 1)
    assert(g(0).getAs[String]("lhsKey") === "Nash")
    assert(g(0).getAs[Long]("nDistinct") === 2)
    assert(g(0).getAs[Long]("grpSize") === 2)
  }

  test("fdViolatingGroups is empty on consistent data") {
    assert(SparkViolations.fdViolatingGroups(inhabitants(spark), fdState).count() === 0)
  }

  test("fdViolatingCells covers RHS and LHS cells of the violating group") {
    val cells = SparkViolations.fdViolatingCells(inhabitants(spark), fdGender).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    assert(cells === Set((2L, "Gender"), (3L, "Gender"), (2L, "LastName"), (3L, "LastName")))
  }

  test("fdViolatingCells can restrict to RHS") {
    val cells = SparkViolations
      .fdViolatingCells(inhabitants(spark), fdGender, includeLhs = false)
      .collect().map(r => (r.getLong(0), r.getString(1))).toSet
    assert(cells === Set((2L, "Gender"), (3L, "Gender")))
  }

  test("violating group count matches DuckDB") {
    val df = inhabitants(spark)
    val got = SparkViolations.fdViolatingGroups(df, fdGender)
      .agg(F.count(F.lit(1)).as("n"))
    Oracle.assertEquivalent(got,
      "SELECT count(*) AS n FROM (SELECT LastName FROM t GROUP BY LastName " +
        "HAVING count(DISTINCT Gender) > 1)",
      "t" -> df)
  }

  test("fdPatternCounts matches DuckDB frequency table") {
    val df = inhabitants(spark)
    val got = SparkViolations.fdPatternCounts(df, fdState)
      .select(F.col("lhsKey"), F.col("rhsVal"), F.col("cnt"))
    Oracle.assertEquivalent(got,
      "SELECT City AS lhsKey, State AS rhsVal, count(*) AS cnt FROM t GROUP BY City, State",
      "t" -> df)
  }

  test("composite-LHS pattern counts use the joint key") {
    val df = inhabitants(spark)
    val fd = FD(Seq("FirstName", "LastName"), "Gender")
    val pats = SparkViolations.fdPatternCounts(df, fd).collect()
    // Anne Nash appears twice with two genders
    val anne = pats.filter(_.getAs[String]("lhsKey").contains("Anne"))
    assert(anne.length === 2)
  }

  test("dcViolatingPairs empty on clean city/state") {
    assert(SparkViolations.dcViolatingPairs(inhabitants(spark), dcCityState).count() === 0)
  }

  test("dcViolatingPairs flags a conflicting city/state pair both ways") {
    val df = mkDf(spark, inhabitantAttrs)(
      Seq("A", "B", "Male", "Austin", "Texas"),
      Seq("C", "D", "Male", "Austin", "Nevada"))
    val pairs = SparkViolations.dcViolatingPairs(df, dcCityState).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(pairs === Set((0L, 1L), (1L, 0L)))
  }

  test("order-predicate DC detects rate inversions with numeric casts") {
    val attrs = Seq("state", "salary", "rate")
    val df = mkDf(spark, attrs)(
      Seq("TX", "90000", "2"),   // inverted: higher salary, lower rate
      Seq("TX", "20000", "5"),
      Seq("CA", "900", "1"))     // numeric, not lexicographic: 900 < 20000
    val dc = DC("tax", Seq(
      Pred("state", "=", PredOperand.Attr("state")),
      Pred("salary", ">", PredOperand.Attr("salary"), numeric = true),
      Pred("rate", "<", PredOperand.Attr("rate"), numeric = true)))
    val pairs = SparkViolations.dcViolatingPairs(df, dc).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(pairs === Set((0L, 1L)))
  }

  test("dc violation pair count matches DuckDB") {
    val attrs = Seq("state", "salary", "rate")
    val df = mkDf(spark, attrs)(
      Seq("TX", "90000", "2"),
      Seq("TX", "20000", "5"),
      Seq("TX", "50000", "5"),
      Seq("CA", "90000", "2"))
    val dc = DC("tax", Seq(
      Pred("state", "=", PredOperand.Attr("state")),
      Pred("salary", ">", PredOperand.Attr("salary"), numeric = true),
      Pred("rate", "<", PredOperand.Attr("rate"), numeric = true)))
    val got = SparkViolations.dcViolatingPairs(df, dc).agg(F.count(F.lit(1)).as("n"))
    Oracle.assertEquivalent(got,
      "SELECT count(*) AS n FROM t t1, t t2 WHERE t1.__tid <> t2.__tid " +
        "AND t1.state = t2.state AND CAST(t1.salary AS DOUBLE) > CAST(t2.salary AS DOUBLE) " +
        "AND CAST(t1.rate AS DOUBLE) < CAST(t2.rate AS DOUBLE)",
      "t" -> df)
  }

  test("violatingCells unions FD and DC cells") {
    val df = mkDf(spark, inhabitantAttrs)(
      Seq("A", "Nash", "Male", "Austin", "Texas"),
      Seq("B", "Nash", "Female", "Austin", "Nevada"))
    val cells = SparkViolations.violatingCells(df, Seq(fdGender, dcCityState)).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    assert(cells.contains((0L, "Gender")))
    assert(cells.contains((1L, "State")))
  }

  test("violatingCells on no rules is empty") {
    assert(SparkViolations.violatingCells(inhabitants(spark), Nil).count() === 0)
  }

  test("FD-shaped DC routes through the FD detector") {
    val df = mkDf(spark, inhabitantAttrs)(
      Seq("A", "B", "Male", "Austin", "Texas"),
      Seq("C", "D", "Male", "Austin", "Nevada"))
    val viaDc = SparkViolations.violatingCells(df, Seq(dcCityState)).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    val viaFd = SparkViolations.violatingCells(df, Seq(FD(Seq("City"), "State"))).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    assert(viaDc === viaFd)
  }
}
