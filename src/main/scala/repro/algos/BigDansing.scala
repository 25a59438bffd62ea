package repro.algos

import repro.core._

/** BigDansing (Khayyat et al., SIGMOD'15) — rule-driven.
  *
  * Expresses detection and repair through the five logical operators
  * Scope -> Block -> Iterate -> Detect -> GenFix, compiled to a dataflow
  * plan. Our rendering maps the operators onto the [[RuleIndex]]: Scope
  * and Block are an FD's attributes and LHS groups, Iterate+Detect the
  * groups with more than one RHS value, and GenFix unifies each violating
  * block on its dominant value, breaking count ties toward the
  * lexicographically larger value (the opposite scan direction from
  * Holistic — the two systems agree except on ties).
  */
object BigDansing extends RepairAlgorithm {
  override val name = "Bigdansing"
  override val category = "Rule-Driven"

  override def repair(in: RepairInput): RepairResult = {
    val idx = new RuleIndex(in.table, in.rules)
    val fixes = idx.fds.flatMap { fd =>
      in.budget.checkTime(s"$name ${fd.id}")
      idx.majorityFixes(fd, tieLexicMin = false)
    } ++ idx.dcs.flatMap { dc =>
      in.budget.checkTime(s"$name ${dc.id}")
      idx.dcOrderFixes(dc)
    }
    RepairResult(in.spark, in.table.patched(fixes), None)
  }
}
