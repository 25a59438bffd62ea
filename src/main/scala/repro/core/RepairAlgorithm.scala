package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import Cells.Cell

/** Everything a repair algorithm may consume (Table 3's "Input" column).
  * Algorithms read the driver-side [[table]], never the relation.
  *
  * - `dirty`: the observed relation (`__tid` + string attrs) — OD; only
  *   [[table]] reads it, and only when `dirtyTable` is not given
  * - `rules`: FDs/DCs that held on the clean data — R
  * - `detections`: cells flagged by an external detector (Raha) — ADR/PDR,
  *   read through [[flagged]]
  * - `labeled`: clean values of the 20 labeled tuples — LD
  * - `classTarget`: label column for the downstream model — DM
  * - `dirtyTable`: `dirty` on the driver, when the caller already holds it
  *   (the harness passes the generator's copy); otherwise [[table]]
  *   collects it once, on first use. A `copy` with another `dirty` must
  *   reset it.
  */
final case class RepairInput(
    spark: SparkSession,
    name: String,
    dirty: DataFrame,
    attrs: Seq[String],
    rules: Seq[Rule],
    numericAttrs: Set[String] = Set.empty,
    detections: Option[DataFrame] = None,
    labeled: Map[(Long, String), String] = Map.empty,
    classTarget: Option[String] = None,
    budget: Budget = Budget.unlimited,
    dirtyTable: Option[Tabular] = None,
) {
  /** The dirty relation on the driver. */
  lazy val table: Tabular = dirtyTable.getOrElse(Tabular.collect(dirty, attrs))

  /** The cells of `detections` on the driver, collected once, on first use. */
  lazy val flagged: Option[Set[Cell]] = detections.map(Cells.cellSet)

  /** FDs available to FD-only algorithms (DC-encoded FDs included). */
  def fds: Seq[FD] = Rule.asFds(rules)
}

/** Output of a repair run, on the driver: the repaired relation plus,
  * when the algorithm has an explicit detection stage, the cells it
  * flagged. When `flagged` is None the harness scores detection on
  * changed cells. `repaired` and `detections` are the same result as
  * relations, built when first read.
  */
final case class RepairResult(spark: SparkSession, table: Tabular, flagged: Option[Set[Cell]]) {
  lazy val repaired: DataFrame = Cells.publish(spark, table)
  lazy val detections: Option[DataFrame] = flagged.map(Cells.cellFrame(spark, _))
}

/** A data repair algorithm from the paper's taxonomy (Section 3).
  *
  * Conflicts: when an algorithm proposes more than one value for a cell,
  * the first proposal in rule order wins. Algorithms list their fixes
  * rule by rule and write them back with [[Tabular.patched]], which keeps
  * the first proposal for each cell.
  */
trait RepairAlgorithm {
  /** Display name used in tables. */
  def name: String
  /** Taxonomy category: Rule-Driven, Data-Driven, Rule&Data-Driven, Model-Driven. */
  def category: String
  /** Run the repair. Must not mutate the input. */
  def repair(in: RepairInput): RepairResult
}
