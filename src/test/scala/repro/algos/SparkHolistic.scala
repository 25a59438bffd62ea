package repro.algos

import org.apache.spark.sql.DataFrame
import repro.core._

/** Reference implementation of [[Holistic]] as DataFrame programs, the
  * version tests check the driver port against.
  *
  * Holistic data cleaning (Chu et al., ICDE'13) — rule-driven.
  *
  * Encodes all DC/FD violation cells in a conflict hypergraph, then repairs
  * via repair contexts over equivalence classes. Our rendering keeps the
  * two defining traits: (i) all rules are considered *together* across
  * repair iterations (a fix for one rule can create/destroy violations of
  * another, hence the re-detection loop), and (ii) the minimum vertex
  * cover of the conflict hypergraph targets the high-degree (minority)
  * cells, which the repair context then unifies with the rest of their
  * class — deterministic lexicographic tie-break, MV tokens excluded.
  * Confident overwrites of correct minority cells (LHS-error intruders,
  * tied groups) are what keep Holistic's Table 4 EDR around zero.
  */
object SparkHolistic extends RepairAlgorithm {
  override val name = "Holistic"
  override val category = "Rule-Driven"

  /** Re-detection rounds (repair-context interplay). */
  private val Rounds = 2

  override def repair(in: RepairInput): RepairResult = {
    var df: DataFrame = Cells.publish(in.spark, in.table)
    var round = 0
    while (round < Rounds) {
      in.budget.checkTime(s"$name round $round")
      val fdFixes = in.fds.map(fd => SparkCommon.fdMajorityRepairs(df, fd, tieLexicMin = true))
      val dcFixes = Rule.pureDcs(in.rules).map(dc => SparkCommon.dcOrderRepairs(df, dc))
      val all = (fdFixes ++ dcFixes).reduceOption(_ union _).getOrElse(SparkCells.noRepairs(df))
      val allCached = all.localCheckpoint()
      val nFixes = allCached.count()
      df = if (nFixes == 0) df else SparkCells.applyRepairs(df, in.attrs, allCached).localCheckpoint()
      round = if (nFixes == 0) Rounds else round + 1
    }
    SparkCells.result(df)
  }
}
