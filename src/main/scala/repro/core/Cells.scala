package repro.core

import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, Row, SparkSession, functions => F}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

/** Cell-level view over a relation.
  *
  * Throughout the reproduction a dataset is a DataFrame with a LONG
  * `__tid` tuple-id column plus STRING attribute columns (missing values
  * are the empty string, never SQL NULL). A "cell" is the pair
  * (`__tid`, attr); the melted view `(__tid, attr, value)` is the common
  * currency of detection results, repair proposals, and metrics.
  */
object Cells {

  /** Name of the tuple-id column every dataset carries. */
  val Tid = "__tid"

  /** A cell: `(tid, attr)`. */
  type Cell = (Long, String)

  /** Melt a wide relation into `(__tid, attr, value)` rows via `stack`. */
  def melt(df: DataFrame, attrs: Seq[String]): DataFrame = {
    require(attrs.nonEmpty, "melt needs at least one attribute")
    val stackArgs = attrs.map(a => s"'$a', `$a`").mkString(", ")
    df.selectExpr(Tid, s"stack(${attrs.size}, $stackArgs) as (attr, value)")
  }

  /** `table` as a relation: a local relation read as one partition, so
    * publishing it runs no Spark job and materializing it (a count, a
    * cache) needs no shuffle.
    */
  def publish(spark: SparkSession, table: Tabular): DataFrame = {
    val schema = StructType(StructField(Tid, LongType, nullable = false) +:
      table.attrs.map(a => StructField(a, StringType, nullable = false)))
    val rows = table.tids.indices.map(i => Row.fromSeq(table.tids(i) +: table.rows(i).toSeq))
    spark.createDataFrame(rows.asJava, schema).coalesce(1)
  }

  /** `cells` as a local `(__tid, attr)` relation sorted by (tid, attr):
    * building it runs no Spark job, and neither does collecting it.
    */
  def cellFrame(spark: SparkSession, cells: Set[Cell]): DataFrame =
    spark.createDataFrame(cells.toSeq.sorted).toDF(Tid, "attr")

  /** The `(__tid, attr)` cells of a detection or repair frame. */
  def cellSet(df: DataFrame): Set[Cell] =
    df.select(F.col(Tid), F.col("attr")).collect().map(r => (r.getLong(0), r.getString(1))).toSet

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
}
