package repro.algos

import org.apache.spark.sql.{DataFrame, functions => F}
import repro.core._

/** Reference implementation of [[BigDansing]] as DataFrame programs, the
  * version tests check the driver port against.
  *
  * BigDansing (Khayyat et al., SIGMOD'15) — rule-driven.
  *
  * Expresses detection and repair through the five logical operators
  * Scope -> Block -> Iterate -> Detect -> GenFix, compiled to a dataflow
  * plan. Our rendering maps each operator to a DataFrame stage; GenFix
  * unifies each violating block on its dominant value, breaking count
  * ties toward the lexicographically larger value (the opposite scan
  * direction from Holistic — the two systems agree except on ties).
  */
object SparkBigDansing extends RepairAlgorithm {
  override val name = "Bigdansing"
  override val category = "Rule-Driven"

  import Cells.Tid

  override def repair(in: RepairInput): RepairResult = {
    val df = Cells.publish(in.spark, in.table)
    val fdFixes = in.fds.map(fd => genFix(df, fd))
    val dcFixes = Rule.pureDcs(in.rules).map(dc => SparkCommon.dcOrderRepairs(df, dc))
    val all = (fdFixes ++ dcFixes).reduceOption(_ union _).getOrElse(SparkCells.noRepairs(df))
    SparkCells.result(SparkCells.applyRepairs(df, in.attrs, all))
  }

  /** Scope: project the rule's attributes. Block: group by the LHS key.
    * Iterate+Detect: enumerate blocks with >1 distinct RHS. GenFix: unify
    * the block on its dominant value (ties toward the larger value).
    */
  private def genFix(df: DataFrame, fd: FD): DataFrame = {
    // Scope
    val scoped = df.select(F.col(Tid) +: fd.attrs.map(F.col): _*)
    // Block + Iterate + Detect + GenFix
    SparkCommon.fdMajorityRepairs(scoped, fd, tieLexicMin = false)
  }
}
