package repro.algos

import repro.core._

/** NADEEF (Ebaid et al., VLDB'13) — rule-driven, generalized rules.
  *
  * Its repair core puts cells that any rule forces to be equal into
  * equivalence classes, merges classes transitively ACROSS rules, and
  * assigns one value per merged class, iterating to a fixpoint. That
  * cross-rule cascade is the defining trait — and the reason Table 4
  * shows NADEEF strongly negative: one wrong majority propagates through
  * every class it merged with.
  */
object Nadeef extends RepairAlgorithm {
  override val name = "Nadeef"
  override val category = "Rule-Driven"

  private val MaxRounds = 3

  override def repair(in: RepairInput): RepairResult = {
    val attrs = in.attrs
    val nAttrs = attrs.size
    val attrIdx = attrs.zipWithIndex.toMap
    var tab = in.table
    var anyChange = true
    var round = 0

    while (anyChange && round < MaxRounds) {
      in.budget.checkTime(s"$name round $round")
      anyChange = false
      val uf = new UnionFind
      def cellId(tid: Long, attr: String): Long = tid * nAttrs + attrIdx(attr)

      // Equivalence classes: for every FD, the RHS cells of all tuples
      // agreeing on the LHS belong together. Classes sharing a cell merge,
      // and cells carrying the same value in the same attribute chain
      // further classes together (NADEEF's value-based unification) —
      // the cascade that lets one wrong majority rewrite column-spanning
      // classes on redundant data (Table 4's strongly negative rows).
      val valueAnchor = scala.collection.mutable.Map.empty[(String, String), Long]
      for (fd <- Rule.asFds(in.rules)) {
        val j = attrIdx(fd.rhs)
        for ((_, members) <- tab.groupBy(fd.lhs) if members.size > 1) {
          val rhsVals = members.map(i => tab.rows(i)(attrIdx(fd.rhs)))
          if (rhsVals.distinct.size > 1) {
            val first = cellId(tab.tids(members.head), fd.rhs)
            members.tail.foreach(i => uf.union(first, cellId(tab.tids(i), fd.rhs)))
            members.foreach { i =>
              val cid = cellId(tab.tids(i), fd.rhs)
              val key = (fd.id, tab.rows(i)(j))
              valueAnchor.get(key) match {
                case Some(anchor) => uf.union(anchor, cid)
                case None         => valueAnchor(key) = cid
              }
            }
          }
        }
      }

      // One value per merged class: the most frequent member value
      // (ties lexicographic).
      val fixes = scala.collection.mutable.ArrayBuffer.empty[(Long, String, String)]
      for ((_, members) <- uf.classes() if members.size > 1) {
        val vals = members.map { cid =>
          val tid = cid / nAttrs; val a = attrs((cid % nAttrs).toInt)
          (cid, tab.value(tid, a))
        }
        val counts = vals.groupBy(_._2).toSeq
        val nonMv = counts.filterNot { case (v, _) => Tabular.MvTokens.contains(v) }
        val pool = if (nonMv.nonEmpty) nonMv else counts
        val winner = pool
          .maxBy { case (v, vs) => (vs.size, v) }(
            Ordering.Tuple2(Ordering.Int, Ordering.String.reverse))._1
        vals.foreach { case (cid, v) =>
          if (v != winner) {
            val tid = cid / nAttrs; val a = attrs((cid % nAttrs).toInt)
            fixes += ((tid, a, winner))
            anyChange = true
          }
        }
      }

      // every cell sits in one class, so a round proposes it at most once
      if (anyChange) tab = tab.patched(fixes.toSeq)
      round += 1
    }

    RepairResult(in.spark, tab, None)
  }
}
