package repro.core

import repro.{Oracle, ReproSpec, TestUtil}
import org.apache.spark.sql.{functions => F}

class CellsSpec extends ReproSpec {
  private val attrs = Seq("a", "b", "c")
  private def df = TestUtil.mkDf(spark, attrs)(
    Seq("1", "x", "p"),
    Seq("2", "y", "q"),
    Seq("3", "z", "r"),
  )

  test("melt produces one row per cell") {
    assert(SparkCells.melt(df, attrs).count() === 9)
  }

  test("melt keeps tid/attr/value triples intact") {
    val m = SparkCells.melt(df, attrs).collect()
      .map(r => (r.getLong(0), r.getString(1), r.getString(2))).toSet
    assert(m.contains((0L, "a", "1")))
    assert(m.contains((2L, "c", "r")))
    assert(m.size === 9)
  }

  test("melt matches a DuckDB unpivot count") {
    val counts = SparkCells.melt(df, attrs)
      .groupBy("attr").agg(F.count(F.lit(1)).as("n"))
    Oracle.assertEquivalent(counts,
      "SELECT attr, count(*) AS n FROM (" +
        "SELECT 'a' AS attr, a AS v FROM t UNION ALL " +
        "SELECT 'b', b FROM t UNION ALL SELECT 'c', c FROM t) GROUP BY attr",
      "t" -> df)
  }

  test("applyRepairs rewrites targeted cells only") {
    val reps = TestUtil.mkDf(spark, Seq("attr", "value"))(Seq("b", "FIXED"))
      .select(F.lit(1L).as(Cells.Tid), F.col("attr"), F.col("value"))
    val out = SparkCells.applyRepairs(df, attrs, reps)
    val m = TestUtil.toMap(out, attrs)
    assert(m(1L) === Seq("2", "FIXED", "q"))
    assert(m(0L) === Seq("1", "x", "p"))
    assert(m(2L) === Seq("3", "z", "r"))
  }

  test("applyRepairs with no repairs is identity") {
    val out = SparkCells.applyRepairs(df, attrs, SparkCells.noRepairs(df))
    assert(TestUtil.toMap(out, attrs) === TestUtil.toMap(df, attrs))
  }

  test("applyRepairs tolerates duplicate proposals") {
    val reps = TestUtil.mkDf(spark, Seq("attr", "value"))(
      Seq("b", "FIX"), Seq("b", "FIX"))
      .select(F.lit(0L).as(Cells.Tid), F.col("attr"), F.col("value"))
    val out = SparkCells.applyRepairs(df, attrs, reps)
    assert(TestUtil.cell(out, attrs, 0L, "b") === "FIX")
  }

  test("driver write-back keeps the first proposal for a cell") {
    val out = Cells.publish(spark, Tabular.collect(df, attrs).patched(
      Seq((1L, "b", "FIRST"), (0L, "a", "9"), (1L, "b", "SECOND"))))
    val m = TestUtil.toMap(out, attrs)
    assert(m(1L) === Seq("2", "FIRST", "q"))
    assert(m(0L) === Seq("9", "x", "p"))
    assert(m(2L) === Seq("3", "z", "r"))
  }

  test("changedCells reports old and new values") {
    val reps = TestUtil.mkDf(spark, Seq("attr", "value"))(Seq("c", "NEW"))
      .select(F.lit(2L).as(Cells.Tid), F.col("attr"), F.col("value"))
    val out = SparkCells.applyRepairs(df, attrs, reps)
    val ch = SparkCells.changedCells(df, out, attrs).collect()
    assert(ch.length === 1)
    assert(ch(0).getAs[String]("old") === "r")
    assert(ch(0).getAs[String]("new") === "NEW")
  }

  test("changedCells is empty for identical frames") {
    assert(SparkCells.changedCells(df, df, attrs).count() === 0)
  }

  test("noRepairs has the repair schema and zero rows") {
    val nr = SparkCells.noRepairs(df)
    assert(nr.columns.toSeq === Seq(Cells.Tid, "attr", "value"))
    assert(nr.count() === 0)
  }
}
