package repro.algos

import repro.core._

/** Reference implementation of [[MLNClean]] as DataFrame programs, the
  * version tests check the driver port against.
  *
  * MLNClean (Ge et al., TKDE'22) — rule-driven with Markov Logic reasoning.
  *
  * Infers *instantiated rules* (ground FD patterns) with reliability
  * scores, generates candidate data versions, and fuses them by score.
  * Defining traits kept: (i) only instantiated patterns whose reliability
  * (majority confidence within the equivalence class, weighted by support)
  * clears a threshold are trusted — which is why MLNClean avoids the
  * wrong-overwrite failure mode and posts positive EDR where plain
  * rule-driven methods go negative; (ii) the whole pipeline is a couple of
  * aggregation passes, making it the fastest method in Table 6.
  */
object SparkMLNClean extends RepairAlgorithm {
  override val name = "MLNClean"
  override val category = "Rule-Driven"

  /** Reliability threshold on an instantiated rule (majority confidence). */
  private val MinReliability = 0.8
  /** Minimum ground-pattern support (fusion score floor). */
  private val MinSupport = 3L

  override def repair(in: RepairInput): RepairResult = {
    val df = Cells.publish(in.spark, in.table)
    val fixes = in.fds
      .map(fd => SparkCommon.fdMajorityRepairs(df, fd, tieLexicMin = true,
        minSupport = MinSupport, minConfidence = MinReliability))
      .reduceOption(_ union _)
      .getOrElse(SparkCells.noRepairs(df))
    SparkCells.result(SparkCells.applyRepairs(df, in.attrs, fixes))
  }
}
