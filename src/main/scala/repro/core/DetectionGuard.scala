package repro.core

import org.apache.spark.sql.DataFrame

/** The paper's unified repair optimization strategy (Section 4.4).
  *
  * "We ensure that values identified as correct by detection methods remain
  * unaltered by data repair algorithms": after an algorithm runs, every
  * change on a cell that the external detector (Raha) did NOT flag as
  * erroneous is reverted. This prevents the dominant failure mode observed
  * in Table 4 — correct cells being turned wrong — and lifts rule-driven
  * algorithms toward top-tier EDR.
  */
object DetectionGuard {

  /** Revert changes of `result` on cells not present in `detections`:
    * flagged cells take the repaired value, every other cell keeps the
    * dirty one.
    */
  def guard(dirty: DataFrame, attrs: Seq[String], result: RepairResult,
            detections: DataFrame): RepairResult =
    guard(Tabular.collect(dirty, attrs), result, Cells.cellSet(detections))

  /** [[guard]] on the driver: the delta of `result` against the dirty
    * `table`, filtered on the `flagged` cells and written back onto `table`.
    */
  def guard(table: Tabular, result: RepairResult, flagged: Set[Cells.Cell]): RepairResult = {
    val kept = table.diff(result.table).toSeq.collect {
      case (cell @ (tid, a), v) if flagged(cell) => (tid, a, v)
    }
    RepairResult(result.spark, table.patched(kept), Some(flagged))
  }

  /** Wrap `algo` so every run is detection-guarded. */
  def guarded(algo: RepairAlgorithm): RepairAlgorithm = new RepairAlgorithm {
    override def name: String     = algo.name + "+ED"
    override def category: String = algo.category
    override def repair(in: RepairInput): RepairResult = {
      val flagged = in.flagged.getOrElse(
        throw new IllegalArgumentException(s"$name requires external detections"))
      guard(in.table, algo.repair(in), flagged)
    }
  }
}
