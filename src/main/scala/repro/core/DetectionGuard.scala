package repro.core

import org.apache.spark.sql.{DataFrame, functions => F}

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
  import Cells.Tid

  /** Revert changes of `result` on cells not present in `detections`:
    * flagged cells take the repaired value, every other cell keeps the
    * dirty one.
    */
  def guard(dirty: DataFrame, attrs: Seq[String], result: RepairResult,
            detections: DataFrame): RepairResult = {
    val det = detections.select(F.col(Tid), F.col("attr")).distinct()
    val flagged = Cells.melt(result.repaired, attrs).join(det, Seq(Tid, "attr"))
    RepairResult(Cells.applyRepairs(dirty, attrs, flagged), Some(det))
  }

  /** Wrap `algo` so every run is detection-guarded. */
  def guarded(algo: RepairAlgorithm): RepairAlgorithm = new RepairAlgorithm {
    override def name: String     = algo.name + "+ED"
    override def category: String = algo.category
    override def repair(in: RepairInput): RepairResult = {
      val det = in.detections.getOrElse(
        throw new IllegalArgumentException(s"$name requires external detections"))
      guard(in.dirty, in.attrs, algo.repair(in), det)
    }
  }
}
