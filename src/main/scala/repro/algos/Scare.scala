package repro.algos

import repro.core._
import repro.ml.NaiveBayes

/** SCARE (Yakout et al., SIGMOD'13) — data-driven.
  *
  * Partitions the data into blocks, learns per-attribute classifiers from
  * likely-clean tuples, predicts flagged cells, and only repairs under a
  * maximal-likelihood margin with *bounded changes*. Defining traits kept:
  * (i) partial detection results gate which cells are candidates, (ii) the
  * likelihood-ratio threshold keeps changes rare (Table 4 shows SCARE's
  * EDR pinned at 0.0000 while its detections are nonzero), and (iii) the
  * per-block x per-attribute model training dominates runtime.
  */
object Scare extends RepairAlgorithm {
  override val name = "Scare"
  override val category = "Data-Driven"

  /** Log-likelihood margin required to *flag* a cell as suspicious. */
  private val DetectMargin = 2.0
  /** Much larger margin required to actually *change* a cell. */
  private val RepairMargin = 8.0
  /** Target tuples per block. */
  private val BlockSize = 500
  /** Bounded changes: at most this fraction of all cells may be rewritten
    * (SCARE's delta bound — the reason its EDR stays pinned near zero).
    */
  private val MaxChangeFraction = 0.002

  override def repair(in: RepairInput): RepairResult = {
    val tab = in.table
    val n = tab.tids.length
    // partial detection results: external when provided, else rule violations
    val flagged =
      in.flagged.getOrElse(Cells.cellSet(Violations.violatingCells(in.dirty, in.rules)))
    val dirtyTids: Set[Long] = flagged.map(_._1)

    val nBlocks = math.max(1, n / BlockSize)
    // candidate fixes carry their margin so the delta bound keeps the best
    val fixes = scala.collection.mutable.ArrayBuffer.empty[(Long, String, String, Double)]
    val detected = scala.collection.mutable.ArrayBuffer.empty[(Long, String)]

    for (b <- 0 until nBlocks) {
      in.budget.checkTime(s"$name block $b")
      val members = tab.tids.indices.filter(i => (tab.tids(i) % nBlocks) == b)
      val cleanMembers = members.filter(i => !dirtyTids.contains(tab.tids(i)))
      if (cleanMembers.size >= 10) {
        for ((attr, j) <- in.attrs.zipWithIndex) {
          val cellsHere = members.filter(i => flagged.contains((tab.tids(i), attr)))
          if (cellsHere.nonEmpty) {
            val otherIdx = in.attrs.indices.filter(_ != j)
            val feats = cleanMembers.map(i => otherIdx.map(tab.rows(i)).toArray).toArray
            val ys    = cleanMembers.map(i => tab.rows(i)(j)).toArray
            val nb = new NaiveBayes().fit(feats, ys)
            for (i <- cellsHere) {
              val row = otherIdx.map(tab.rows(i)).toArray
              val observed = tab.rows(i)(j)
              val (pred, bestScore) = nb.predictWithScore(row)
              val obsScore = nb.scoreOf(row, observed)
              val margin = bestScore - obsScore
              if (pred != observed && margin > DetectMargin) {
                detected += ((tab.tids(i), attr))
                if (margin > RepairMargin && ys.count(_ == pred) >= 2)
                  fixes += ((tab.tids(i), attr, pred, margin))
              }
            }
          }
        }
      }
    }

    val maxChanges = math.max(1, (n.toLong * in.attrs.size * MaxChangeFraction).toInt)
    val bounded = fixes.toSeq
      .sortBy { case (tid, attr, _, m) => (-m, tid, attr) }
      .take(maxChanges)
      .map { case (tid, attr, v, _) => (tid, attr, v) }
    RepairResult(in.spark, tab.patched(bounded), Some(detected.toSet))
  }
}
