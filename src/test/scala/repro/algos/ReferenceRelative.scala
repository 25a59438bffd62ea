package repro.algos

import repro.core._

/** Reference implementation of [[Relative]]: every search node groups the
  * relation on the variant's LHS by string composite keys
  * ([[Tabular.groupBy]]) and its RHS values again inside each group, and
  * the fix loop groups the chosen FDs the same way. Tests check the
  * integer-coded search against it.
  */
object ReferenceRelative extends RepairAlgorithm {
  override val name = "Relative"
  override val category = "Rule&Data-Driven"

  /** Search-node budget standing in for the paper's 24 h timeout. */
  val DefaultMaxNodes = 500

  override def repair(in: RepairInput): RepairResult = repair(in, DefaultMaxNodes)

  def repair(in: RepairInput, maxNodes: Int): RepairResult = {
    val tab = in.table
    val fds = Rule.asFds(in.rules)
    if (fds.isEmpty) return RepairResult(in.spark, tab, None)

    var nodes = 0
    def visit(): Unit = {
      nodes += 1
      if (nodes > maxNodes) throw new BudgetExceeded(
        s"$name: exceeded $maxNodes search nodes over ${fds.size} rules")
      if ((nodes & 0x1F) == 0) in.budget.checkTime(s"$name node $nodes")
    }

    /** Minimal data changes for one FD: non-majority tuples per group. */
    def dataCost(fd: FD): Int = {
      visit()
      tab.groupBy(fd.lhs).valuesIterator.map { members =>
        val counts = members.groupBy(i => tab.rows(i)(tab.attrIdx(fd.rhs)))
        if (counts.size <= 1) 0 else members.size - counts.valuesIterator.map(_.size).max
      }.sum
    }

    /** Candidate modifications of one FD: itself, or its LHS extended by
      * one or two attributes — the minimal rule repairs the search
      * explores, and the reason its cross-product is exponential.
      */
    def variants(fd: FD): Seq[FD] = {
      val free = in.attrs.filterNot(a => fd.lhs.contains(a) || a == fd.rhs)
      val singles = free.map(a => FD(fd.lhs :+ a, fd.rhs))
      val doubles = for {
        (a, i) <- free.zipWithIndex; b <- free.drop(i + 1)
      } yield FD(fd.lhs :+ a :+ b, fd.rhs)
      fd +: (singles ++ doubles)
    }

    // Backtracking over the cross-product of per-rule variants, tracking
    // the cheapest total data cost (relative trust tau = prefer rule
    // changes only when they strictly reduce data changes).
    var best: Option[(Seq[FD], Int)] = None
    def search(i: Int, chosen: List[FD], cost: Int): Unit = {
      if (best.exists(_._2 <= cost)) return // bound
      if (i == fds.size) { best = Some((chosen.reverse, cost)); return }
      for (v <- variants(fds(i))) {
        val c = dataCost(v)
        val rulePenalty = v.lhs.size - fds(i).lhs.size // trust in Sigma
        search(i + 1, v :: chosen, cost + c + rulePenalty)
      }
    }
    search(0, Nil, 0)

    val chosen = best.map(_._1).getOrElse(fds)
    val fixes = scala.collection.mutable.ArrayBuffer.empty[(Long, String, String)]
    for (fd <- chosen) {
      for ((_, members) <- tab.groupBy(fd.lhs) if members.size > 1) {
        val counts = members.groupBy(i => tab.rows(i)(tab.attrIdx(fd.rhs)))
        if (counts.size > 1) {
          val winner = counts.toSeq
            .maxBy { case (v, ms) => (ms.size, v) }(
              Ordering.Tuple2(Ordering.Int, Ordering.String.reverse))._1
          for (i <- members if tab.rows(i)(tab.attrIdx(fd.rhs)) != winner)
            fixes += ((tab.tids(i), fd.rhs, winner))
        }
      }
    }
    RepairResult(in.spark, tab.patched(fixes.toSeq), None)
  }
}
