package repro.algos

import repro.core._

/** Holistic data cleaning (Chu et al., ICDE'13) — rule-driven.
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
object Holistic extends RepairAlgorithm {
  override val name = "Holistic"
  override val category = "Rule-Driven"

  /** Re-detection rounds (repair-context interplay). */
  private val Rounds = 2

  override def repair(in: RepairInput): RepairResult = {
    var tab = in.table
    var round = 0
    while (round < Rounds) {
      in.budget.checkTime(s"$name round $round")
      // each round re-detects on the table the previous round patched
      val idx = new RuleIndex(tab, in.rules)
      val fixes = idx.fds.flatMap(fd => idx.majorityFixes(fd, tieLexicMin = true)) ++
        idx.dcs.flatMap(idx.dcOrderFixes)
      if (fixes.isEmpty) round = Rounds
      else { tab = tab.patched(fixes); round += 1 }
    }
    RepairResult(in.spark, tab, None)
  }
}
