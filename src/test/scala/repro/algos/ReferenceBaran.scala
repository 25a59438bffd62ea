package repro.algos

import repro.core._

/** Reference implementation of [[Baran]]: every flagged cell builds the
  * candidate map of all three models, the whole attribute domain
  * included, and sorts every candidate by score. Tests check the
  * per-attribute domain ranking of [[Baran]] against it.
  */
object ReferenceBaran extends RepairAlgorithm {
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
    // domain model support: per attribute, value frequency over un-flagged cells
    val domainFreq: Map[Int, Map[String, Int]] = in.attrs.indices.map { j =>
      val attr = in.attrs(j)
      val clean = tab.rows.indices
        .filter(i => !detections.contains((tab.tids(i), attr)))
        .map(i => tab.rows(i)(j))
      j -> clean.groupBy(identity).view.mapValues(_.size).toMap
    }.toMap

    def candidates(i: Int, j: Int): Map[String, Map[String, Double]] = {
      val attr = in.attrs(j)
      val observed = tab.rows(i)(j)
      // value model
      val valueCands: Map[String, Double] = {
        val exact = exactMap.get((attr, observed)).map(_ -> 1.0)
        val trans = usefulTransforms.map(t => t(observed))
          .filter(v => v != observed && domainFreq(j).getOrElse(v, 0) > 0)
          .map(_ -> 0.8)
        (exact.toSeq ++ trans).groupBy(_._1).view.mapValues(_.map(_._2).max).toMap
      }
      // vicinity model: values of attr co-occurring with the tuple's other
      // (un-flagged) values; near-constant source attributes carry no
      // signal and are skipped (Baran keeps informative contexts only)
      val maxMates = math.max(20, tab.rows.length / 5)
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
      val vicinityCands: Map[String, Double] =
        if (total == 0) Map.empty
        else tally.toMap.map { case (v, c) => v -> c.toDouble / total }
      // domain model
      val dTotal = domainFreq(j).values.sum.toDouble
      val domainCands: Map[String, Double] =
        if (dTotal == 0) Map.empty
        else domainFreq(j).map { case (v, c) => v -> c / dTotal }
      Map("value" -> valueCands, "vicinity" -> vicinityCands, "domain" -> domainCands)
    }

    // ---- ensemble weights fit on the labeled corrections ----
    val modelNames = Seq("value", "vicinity", "domain")
    val weights: Map[String, Double] = {
      val hits = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
      var tried = 0
      for {
        ((tid, attr), cleanV) <- in.labeled.toSeq.sortBy { case ((t, a), _) => (t, a) }
        i <- tab.tidIdx.get(tid)
        j = tab.attrIdx(attr)
        if tab.rows(i)(j) != cleanV // a labeled correction
      } {
        tried += 1
        val cands = candidates(i, j)
        for (m <- modelNames) {
          val top = cands(m).toSeq.sortBy { case (v, p) => (-p, v) }.headOption
          if (top.exists(_._1 == cleanV)) hits(m) += 1
        }
      }
      modelNames.map { m =>
        m -> (if (tried == 0) 0.4 else hits(m).toDouble / tried + 0.1)
      }.toMap
    }

    // ---- repair every detected cell ----
    val fixes = scala.collection.mutable.ArrayBuffer.empty[(Long, String, String)]
    var processed = 0
    for ((tid, attr) <- detections if tab.tidIdx.contains(tid)) {
      processed += 1
      if ((processed & 0xFF) == 0) in.budget.checkTime(s"$name cell $processed")
      val i = tab.tidIdx(tid); val j = tab.attrIdx(attr)
      val observed = tab.rows(i)(j)
      val cands = candidates(i, j)
      val scores = scala.collection.mutable.Map.empty[String, Double].withDefaultValue(0.0)
      for (m <- modelNames; (v, p) <- cands(m)) scores(v) += weights(m) * p
      val best = scores.toSeq.sortBy { case (v, s) => (-s, v) }.headOption
      best.foreach { case (v, s) =>
        if (v != observed && s >= MinScore) fixes += ((tid, attr, v))
      }
    }

    RepairResult(in.spark, tab.patched(fixes.toSeq), in.flagged)
  }
}
