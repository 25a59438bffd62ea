package repro.algos

import org.apache.spark.sql.DataFrame
import repro.core._

/** Horizon (Rezig et al., VLDB'21) — rule-driven, FDs only.
  *
  * Builds a directed FD pattern graph (value edges from LHS to RHS with
  * support counts) and traverses it in linear time, repairing toward the
  * most strongly supported pattern. Defining traits kept: (i) only FDs —
  * order DCs are ignored; (ii) a pattern must have support >= 2 to be
  * trusted (frequent-pattern retention from Horizon's cost model); and
  * (iii) FDs are processed sequentially so later dependencies see already-
  * repaired values (the graph traversal).
  */
object Horizon extends RepairAlgorithm {
  override val name = "Horizon"
  override val category = "Rule-Driven"

  override def repair(in: RepairInput): RepairResult = {
    var df: DataFrame = in.dirty
    // the pattern graph's edges connect single values left-to-right, so
    // only single-attribute-LHS dependencies materialize as patterns
    val ordered = in.fds.filter(_.lhs.size == 1)
    for (fd <- ordered) {
      in.budget.checkTime(s"$name ${fd.id}")
      // a pattern is only trusted when it is strictly the most supported
      // one for its LHS value (support >= 2, no ties)
      val fixes = Common.fdMajorityRepairs(df, fd, tieLexicMin = true,
        minSupport = 2L, skipTies = true)
      // checkpoint per pass: ten chained repair plans otherwise make
      // Catalyst re-optimize an ever-growing tree
      df = Cells.applyRepairs(df, in.attrs, fixes).localCheckpoint()
    }
    RepairResult(df)
  }
}
