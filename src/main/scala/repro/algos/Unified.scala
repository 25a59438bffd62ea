package repro.algos

import repro.core._

/** Unified (Chiang & Miller, ICDE'11) — rule&data-driven, tolerant repair.
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
object Unified extends RepairAlgorithm {
  override val name = "Unified"
  override val category = "Rule&Data-Driven"

  /** DL cost of a rule modification, as a fraction of relation size. */
  private val RuleRepairCostFraction = 0.08
  /** Constant DL overhead of a rule modification. */
  private val RuleRepairCostBase = 8.0

  override def repair(in: RepairInput): RepairResult = {
    val idx = new RuleIndex(in.table, in.rules)
    val n = in.table.tids.length.toDouble
    val fixes = idx.fds.flatMap { fd =>
      in.budget.checkTime(s"$name ${fd.id}")
      // deviating mass: minimal cell changes to align every violating
      // group with its core (most frequent) pattern
      val dataCost = idx.groups(fd).valuesIterator
        .collect { case g if g.nDistinct > 1 => g.size - g.top }.sum.toDouble
      val ruleCost = RuleRepairCostBase + RuleRepairCostFraction * n
      if (dataCost <= ruleCost)
        // repair data toward core patterns (support >= 2 keeps the
        // pattern "core" rather than singleton noise)
        idx.majorityFixes(fd, tieLexicMin = true, minSupport = 2)
      else
        Nil // repair the rule instead: Sigma' drops/relaxes it, data untouched
    }
    RepairResult(in.spark, in.table.patched(fixes), None)
  }
}
