package repro.algos

import repro.core._

import scala.collection.mutable

/** Relative trust (Beskales et al., ICDE'13) — rule&data-driven, tolerant
  * repair.
  *
  * Explores the space of minimal *rule* modifications (extending FD
  * left-hand sides) and, for each candidate rule set, computes the minimal
  * data changes, picking the combination within the relative-trust
  * threshold. The backtracking search over rule-modification combinations
  * is exponential in the number of rules — Table 4/6 report "n/a" for
  * Relative on every benchmark dataset, which our node budget reproduces;
  * unit tests exercise the full search on tiny inputs.
  *
  * A node's data cost comes from integer codes: each column is encoded
  * once per call, an LHS's row partition is its prefix's partition refined
  * by the last attribute (TANE's stripped partitions, Huhtala et al. 1999),
  * and a variant's cost is one counting pass over its partition, kept for
  * the rest of the search. Every evaluation is still a search node, so the
  * node count and the budget trip do not depend on the memo.
  */
object Relative extends RepairAlgorithm {
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

    val columns = tab.attrs.indices.map(j => Column.encode(tab.rows.map(_(j)))).toArray
    def column(a: String): Column = columns(tab.attrIdx(a))
    val work = new WorkArrays(columns.map(_.values.length).maxOption.getOrElse(0))
    val partitions = mutable.HashMap.empty[Seq[String], Partition]
    def partition(lhs: Seq[String]): Partition = partitions.get(lhs) match {
      case Some(p) => p
      case None =>
        val p = if (lhs.size == 1) Partition.of(column(lhs.head), work)
                else partition(lhs.init).refine(column(lhs.last), work)
        partitions(lhs) = p
        p
    }
    val costs = mutable.HashMap.empty[FD, Int]

    /** Minimal data changes for one FD: non-majority tuples per group. */
    def dataCost(fd: FD): Int = {
      visit()
      costs.getOrElseUpdate(fd, partition(fd.lhs).cost(column(fd.rhs), work))
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

    // In every LHS group of a chosen FD with more than one RHS value, the
    // RHS of each tuple becomes the most frequent value, the smallest
    // string among tied ones.
    val chosen = best.map(_._1).getOrElse(fds)
    val fixes = mutable.ArrayBuffer.empty[(Long, String, String)]
    for (fd <- chosen) {
      val rhs = column(fd.rhs)
      partition(fd.lhs).foreachGroup { (rows, from, until) =>
        val winner = work.majority(rhs, rows, from, until)
        if (winner >= 0) for (k <- from until until if rhs.codes(rows(k)) != winner)
          fixes += ((tab.tids(rows(k)), fd.rhs, rhs.values(winner)))
      }
    }
    RepairResult(in.spark, tab.patched(fixes.toSeq), None)
  }

  /** One column as dense codes: `values(codes(i))` is row `i`'s value, and
    * codes number the distinct values in order of first appearance.
    */
  private final case class Column(codes: Array[Int], values: Array[String])

  private object Column {
    def encode(cells: Array[String]): Column = {
      val dict = new java.util.HashMap[String, Integer]
      val values = mutable.ArrayBuffer.empty[String]
      val codes = cells.map { v =>
        val c = dict.get(v)
        if (c != null) c.intValue
        else { dict.put(v, values.size); values += v; values.size - 1 }
      }
      Column(codes, values.toArray)
    }
  }

  /** Per-code work arrays sized to the largest column dictionary, shared
    * by every partition of one call; [[count]] is all zero between uses.
    */
  private final class WorkArrays(maxCodes: Int) {
    val count = new Array[Int](maxCodes)
    val offset = new Array[Int](maxCodes)
    val seen = new Array[Int](maxCodes)

    /** Counts the codes of `col` over `rows(from until until)` into
      * [[count]] and lists each distinct code once, in order of first
      * appearance, in [[seen]]; returns how many there are.
      */
    def tally(col: Column, rows: Array[Int], from: Int, until: Int): Int = {
      var distinct = 0
      var k = from
      while (k < until) {
        val c = col.codes(rows(k))
        if (count(c) == 0) { seen(distinct) = c; distinct += 1 }
        count(c) += 1
        k += 1
      }
      distinct
    }

    def clear(distinct: Int): Unit = {
      var d = 0
      while (d < distinct) { count(seen(d)) = 0; d += 1 }
    }

    /** The group's largest count of one code of `col`. */
    def top(col: Column, rows: Array[Int], from: Int, until: Int): Int = {
      val distinct = tally(col, rows, from, until)
      var best = 0
      var d = 0
      while (d < distinct) { best = math.max(best, count(seen(d))); d += 1 }
      clear(distinct)
      best
    }

    /** The group's most frequent code of `col`, the one with the smallest
      * value among tied codes; -1 when the group holds one value only.
      */
    def majority(col: Column, rows: Array[Int], from: Int, until: Int): Int = {
      val distinct = tally(col, rows, from, until)
      var best = -1
      if (distinct > 1) {
        best = seen(0)
        var d = 1
        while (d < distinct) {
          val c = seen(d)
          if (count(c) > count(best) ||
              (count(c) == count(best) && col.values(c).compareTo(col.values(best)) < 0)) best = c
          d += 1
        }
      }
      clear(distinct)
      best
    }
  }

  /** The rows of an LHS grouped by their values, stripped of singleton
    * groups: group `g` is `order(start(g) until start(g + 1))`, in row
    * order. A singleton never needs a repair and refines only into
    * singletons, so dropping it changes no cost.
    */
  private final class Partition(start: Array[Int], order: Array[Int]) {

    def foreachGroup(f: (Array[Int], Int, Int) => Unit): Unit =
      for (g <- 0 until start.length - 1) f(order, start(g), start(g + 1))

    /** Non-majority tuples of `rhs` summed over the groups. */
    def cost(rhs: Column, work: WorkArrays): Int = {
      var total = 0
      foreachGroup { (rows, from, until) =>
        total += until - from - work.top(rhs, rows, from, until)
      }
      total
    }

    /** This partition split by the values of `col`: each group's rows
      * regrouped by their code, sub-groups in order of first appearance.
      */
    def refine(col: Column, work: WorkArrays): Partition = {
      val starts = mutable.ArrayBuilder.make[Int]
      val out = new Array[Int](order.length)
      var n = 0
      foreachGroup { (rows, from, until) =>
        val distinct = work.tally(col, rows, from, until)
        // lay the sub-groups of two or more rows out from `n`
        var d = 0
        while (d < distinct) {
          val c = work.seen(d)
          if (work.count(c) > 1) { starts += n; work.offset(c) = n; n += work.count(c) }
          else work.offset(c) = -1
          d += 1
        }
        var k = from
        while (k < until) {
          val c = col.codes(rows(k))
          if (work.offset(c) >= 0) { out(work.offset(c)) = rows(k); work.offset(c) += 1 }
          k += 1
        }
        work.clear(distinct)
      }
      starts += n
      new Partition(starts.result(), java.util.Arrays.copyOf(out, n))
    }
  }

  private object Partition {
    /** The rows grouped by one column's codes. */
    def of(col: Column, work: WorkArrays): Partition =
      new Partition(Array(0, col.codes.length), col.codes.indices.toArray).refine(col, work)
  }
}
