package repro.algos

import org.apache.spark.sql.{functions => F}
import repro.core._

/** Reference implementation of [[Unified]] as DataFrame programs, the
  * version tests check the driver port against.
  *
  * Unified (Chiang & Miller, ICDE'11) — rule&data-driven, tolerant repair.
  *
  * One description-length (DL) cost model covers both data and rule
  * repairs. Per rule: core patterns (frequent tuples) and deviating tuple
  * patterns are extracted; the DL cost of repairing the data toward core
  * patterns is compared against the DL cost of modifying the rule, and the
  * cheaper side wins. Defining traits kept: on low-error-rate, redundant
  * data the data-repair side wins (strong positive EDR on Hospital); once
  * the violating mass is large the *rule* is repaired instead and the data
  * is left alone — reproducing Unified's EDR = 0.0000 on the 30%-error
  * Flights dataset.
  */
object SparkUnified extends RepairAlgorithm {
  override val name = "Unified"
  override val category = "Rule&Data-Driven"

  /** DL cost of a rule modification, as a fraction of relation size. */
  private val RuleRepairCostFraction = 0.08
  /** Constant DL overhead of a rule modification. */
  private val RuleRepairCostBase = 8.0

  override def repair(in: RepairInput): RepairResult = {
    val df = Cells.publish(in.spark, in.table)
    val n = df.count().toDouble
    val fixes = in.fds.flatMap { fd =>
      in.budget.checkTime(s"$name ${fd.id}")
      // deviating mass: minimal cell changes to align every violating
      // group with its core (most frequent) pattern
      val winners = SparkCommon.fdWinners(df, fd).where(F.col("nDistinct") > 1)
      val devRow = winners
        .agg(F.sum(F.col("grpSize") - F.col("winCnt")).as("dev"),
          F.count(F.lit(1)).as("groups"))
        .collect()(0)
      val deviating = Option(devRow.get(0)).map(_.toString.toDouble).getOrElse(0.0)
      val dataCost = deviating
      val ruleCost = RuleRepairCostBase + RuleRepairCostFraction * n
      if (dataCost <= ruleCost)
        // repair data toward core patterns (support >= 2 keeps the
        // pattern "core" rather than singleton noise)
        Some(SparkCommon.fdMajorityRepairs(df, fd, tieLexicMin = true, minSupport = 2L))
      else
        None // repair the rule instead: Sigma' drops/relaxes it, data untouched
    }
    val all = fixes.reduceOption(_ union _).getOrElse(SparkCells.noRepairs(df))
    SparkCells.result(SparkCells.applyRepairs(df, in.attrs, all))
  }
}
