package repro.core

import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, Row, SparkSession, functions => F}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

/** Cells, and the relation views of driver-side results.
  *
  * A dataset is a driver-side [[Tabular]] (tids plus STRING attribute
  * values; missing values are the empty string, never SQL NULL), and as a
  * relation a DataFrame with a LONG `__tid` tuple-id column plus the
  * attribute columns. A "cell" is the pair (tid, attr): detections are
  * cell sets, repairs are `(tid, attr, value)` fixes patched onto the
  * table, and the metrics count cells. The relation views below are built
  * only for callers that ask for relations (tests, perfbench).
  */
object Cells {

  /** Name of the tuple-id column every dataset carries. */
  val Tid = "__tid"

  /** A cell: `(tid, attr)`. */
  type Cell = (Long, String)

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
}
