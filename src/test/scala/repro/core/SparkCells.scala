package repro.core

import org.apache.spark.sql.{DataFrame, functions => F}

/** Reference implementation of the cell layer as DataFrame programs: the
  * melted `(__tid, attr, value)` view, the tid-join write-back and the
  * cell diff. The driver cell layer ([[Tabular.patched]],
  * [[Tabular.diff]]) is checked against it, and the `Spark*` reference
  * algorithms write their repairs back with it.
  */
object SparkCells {
  import Cells.Tid

  /** Melt a wide relation into `(__tid, attr, value)` rows via `stack`. */
  def melt(df: DataFrame, attrs: Seq[String]): DataFrame = {
    require(attrs.nonEmpty, "melt needs at least one attribute")
    val stackArgs = attrs.map(a => s"'$a', `$a`").mkString(", ")
    df.selectExpr(Tid, s"stack(${attrs.size}, $stackArgs) as (attr, value)")
  }

  /** Spark-side write-back, for the algorithms that propose repairs as a
    * frame: apply cell repairs `(__tid, attr, value)` to `dirty`,
    * returning the repaired wide relation. Cells absent from `repairs`
    * keep their value; duplicate proposals for one cell resolve to an
    * arbitrary single one.
    */
  def applyRepairs(dirty: DataFrame, attrs: Seq[String], repairs: DataFrame): DataFrame = {
    // dedupe before folding: map_from_entries rejects duplicate keys.
    // localCheckpoint: repair sets are tiny but their lineage (unions of
    // window/join subplans, one per rule) makes Catalyst re-optimize a
    // huge plan for every downstream action — materialize and cut it
    val fix = repairs
      .groupBy(F.col(Tid), F.col("attr"))
      .agg(F.first("value").as("value"))
      .groupBy(F.col(Tid))
      .agg(F.map_from_entries(F.collect_list(F.struct(F.col("attr"), F.col("value")))).as("__fix"))
      .localCheckpoint()
    dirty.join(fix, Seq(Tid), "left")
      .select(F.col(Tid) +: attrs.map(a =>
        F.coalesce(F.element_at(F.col("__fix"), F.lit(a)), F.col(a)).as(a)): _*)
  }

  /** Cells where `before` and `after` differ: `(__tid, attr, old, new)`. */
  def changedCells(before: DataFrame, after: DataFrame, attrs: Seq[String]): DataFrame = {
    val b = melt(before, attrs).withColumnRenamed("value", "old")
    val a = melt(after, attrs).withColumnRenamed("value", "new")
    b.join(a, Seq(Tid, "attr")).where(F.col("old") =!= F.col("new"))
  }

  /** Empty `(__tid, attr, value)` frame, for algorithms that propose nothing. */
  def noRepairs(df: DataFrame): DataFrame =
    df.sparkSession
      .emptyDataFrame
      .select(F.lit(0L).as(Tid), F.lit("").as("attr"), F.lit("").as("value"))
      .limit(0)

  /** A result given as relations, collected to the driver here, so a
    * Spark-side algorithm pays for the collect inside its own run.
    */
  def result(repaired: DataFrame, detections: Option[DataFrame] = None): RepairResult =
    RepairResult(repaired.sparkSession,
      Tabular.collect(repaired, repaired.columns.toSeq.filterNot(_ == Tid)),
      detections.map(Cells.cellSet))
}
