package repro.algos

import repro.core._

/** Baran (Mahdavi & Abedjan, VLDB'20) — data-driven, the paper's overall
  * winner ("Raha-Baran consistently produces nearly the best results").
  *
  * Defining traits kept:
  *  - consumes *all* detection results from Raha plus ~20 labeled tuples;
  *  - three candidate models over different contexts (Table 3's
  *    "Equiv+Domain+Str Variation"): a value model of string
  *    transformations learned from labeled corrections, a vicinity model
  *    of co-occurrence with the tuple's other values, and a domain model
  *    of attribute value frequencies;
  *  - an ensemble whose model weights are fit on the labeled corrections;
  *  - only detected cells are ever touched, which is why Baran rarely
  *    introduces errors.
  */
object Baran extends RepairAlgorithm {
  override val name = "Baran"
  override val category = "Data-Driven"

  /** Minimum ensemble score to commit a repair. */
  private val MinScore = 0.35

  /** The value model's library of reversible string transformations. */
  private val Transforms: Seq[(String, String => String)] = Seq(
    "trim"        -> ((s: String) => s.trim),
    "underscore"  -> ((s: String) => s.replace("_", " ")),
    "lower"       -> ((s: String) => s.toLowerCase),
    "upper"       -> ((s: String) => s.toUpperCase),
    "titlecase"   -> ((s: String) => s.split(' ').map(w =>
      if (w.isEmpty) w else w.substring(0, 1).toUpperCase + w.substring(1).toLowerCase)
      .mkString(" ")),
  )

  override def repair(in: RepairInput): RepairResult = {
    val tab = in.table
    val detections =
      in.flagged.getOrElse(new RuleIndex(tab, in.rules).violatingCells)

    // ---- labeled corrections: (attr, dirtyValue, cleanValue) ----
    val corrections: Seq[(String, String, String)] = in.labeled.toSeq.flatMap {
      case ((tid, attr), cleanV) =>
        tab.tidIdx.get(tid).map(i => (attr, tab.rows(i)(tab.attrIdx(attr)), cleanV))
    }.filter { case (_, d, c) => d != c }

    // value model: exact corrections seen in labels + validated transforms
    val exactMap: Map[(String, String), String] =
      corrections.map { case (a, d, c) => (a, d) -> c }.toMap
    val usefulTransforms: Seq[String => String] = Transforms.collect {
      case (_, t) if corrections.exists { case (_, d, c) => t(d) == c } => t
    }

    // vicinity model support: per attribute, inverted index value -> rows
    val index = tab.valueRows()
    // domain model: per attribute, the share of each value among un-flagged cells
    val domain: IndexedSeq[Map[String, Double]] = in.attrs.indices.map { j =>
      val attr = in.attrs(j)
      val freq = tab.rows.indices
        .filter(i => !detections.contains((tab.tids(i), attr)))
        .map(i => tab.rows(i)(j))
        .groupBy(identity).view.mapValues(_.size).toMap
      val dTotal = freq.values.sum.toDouble
      if (dTotal == 0) Map.empty[String, Double] else freq.map { case (v, c) => v -> c / dTotal }
    }

    // value model
    def valueCands(i: Int, j: Int): Map[String, Double] = {
      val observed = tab.rows(i)(j)
      val exact = exactMap.get((in.attrs(j), observed)).map(_ -> 1.0)
      val trans = usefulTransforms.map(t => t(observed))
        .filter(v => v != observed && domain(j).contains(v))
        .map(_ -> 0.8)
      (exact.toSeq ++ trans).groupBy(_._1).view.mapValues(_.map(_._2).max).toMap
    }

    // vicinity model: values of attr co-occurring with the tuple's other
    // (un-flagged) values; near-constant source attributes carry no
    // signal and are skipped (Baran keeps informative contexts only)
    val maxMates = math.max(20, tab.rows.length / 5)
    def vicinityCands(i: Int, j: Int): Map[String, Double] = {
      val attr = in.attrs(j)
      val tally = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
      var total = 0
      for (k <- in.attrs.indices if k != j) {
        val otherAttr = in.attrs(k)
        if (!detections.contains((tab.tids(i), otherAttr))) {
          val mates = index(k).getOrElse(tab.rows(i)(k), Nil)
          if (mates.size <= maxMates) {
            for (m <- mates if m != i) {
              val v = tab.rows(m)(j)
              if (!detections.contains((tab.tids(m), attr))) { tally(v) += 1; total += 1 }
            }
          }
        }
      }
      if (total == 0) Map.empty
      else tally.toMap.map { case (v, c) => v -> c.toDouble / total }
    }

    /** The best candidate: highest score, ties to the smallest value. */
    def top(scores: Iterable[(String, Double)]): Option[(String, Double)] =
      if (scores.isEmpty) None else Some(scores.minBy { case (v, s) => (-s, v) })

    // ---- ensemble weights fit on the labeled corrections ----
    val (wValue, wVicinity, wDomain) = {
      val hits = Array(0, 0, 0)
      var tried = 0
      for {
        ((tid, attr), cleanV) <- in.labeled.toSeq.sortBy { case ((t, a), _) => (t, a) }
        i <- tab.tidIdx.get(tid)
        j = tab.attrIdx(attr)
        if tab.rows(i)(j) != cleanV // a labeled correction
      } {
        tried += 1
        for ((cands, m) <- Seq(valueCands(i, j), vicinityCands(i, j), domain(j)).zipWithIndex)
          if (top(cands).exists(_._1 == cleanV)) hits(m) += 1
      }
      def weight(m: Int) = if (tried == 0) 0.4 else hits(m).toDouble / tried + 0.1
      (weight(0), weight(1), weight(2))
    }

    // per attribute, its domain ranked once by (-weighted share, value):
    // a value no other model proposes scores its domain term alone, so the
    // first such value in this order is the best of them
    val ranked = scala.collection.mutable.Map.empty[Int, Array[(String, Double)]]
    def rankedDomain(j: Int): Array[(String, Double)] = ranked.getOrElseUpdate(j,
      domain(j).toArray.map { case (v, p) => (v, wDomain * p) }.sortBy { case (v, s) => (-s, v) })

    // ---- repair every detected cell ----
    val fixes = scala.collection.mutable.ArrayBuffer.empty[(Long, String, String)]
    var processed = 0
    for ((tid, attr) <- detections if tab.tidIdx.contains(tid)) {
      processed += 1
      if ((processed & 0xFF) == 0) in.budget.checkTime(s"$name cell $processed")
      val i = tab.tidIdx(tid); val j = tab.attrIdx(attr)
      val observed = tab.rows(i)(j)
      // the value and vicinity candidates, each summing its terms in model order
      val scores = scala.collection.mutable.HashMap.empty[String, Double]
      for ((v, p) <- valueCands(i, j)) scores(v) = wValue * p
      for ((v, p) <- vicinityCands(i, j)) scores(v) = scores.getOrElse(v, 0.0) + wVicinity * p
      scores.mapValuesInPlace((v, s) => domain(j).get(v).fold(s)(s + wDomain * _))
      rankedDomain(j).find { case (v, _) => !scores.contains(v) }.foreach(scores += _)
      top(scores).foreach { case (v, s) =>
        if (v != observed && s >= MinScore) fixes += ((tid, attr, v))
      }
    }

    RepairResult(in.spark, tab.patched(fixes.toSeq), in.flagged)
  }
}
