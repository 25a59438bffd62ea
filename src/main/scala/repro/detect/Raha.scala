package repro.detect

import scala.collection.{BitSet, mutable}
import org.apache.spark.sql.DataFrame
import repro.core.{Cells, Rule, RuleIndex, Tabular}

/** Simplified Raha (Mahdavi et al., SIGMOD'19): configuration-free error
  * detection via a per-column detector ensemble calibrated on few labels.
  *
  * Detector library, computed on the driver in one pass per column over
  * the dataset's [[Tabular]], with no Spark job:
  *  - MV: the value is an explicit/implicit missing-value token;
  *  - FORMAT: the value's character-class signature differs from the
  *    column's dominant signature;
  *  - FREQ: the value is rare in its column (frequency below a threshold);
  *  - RULE: the cell participates in a rule violation.
  *
  * The 20 labeled tuples select, per column, the subset of detectors whose
  * predictions score best (F1) against the labels; the final detection for
  * a column is the union of its selected detectors. A column where no
  * detector reaches F1 0.5 takes MV alone if its labeled cells hold an
  * error, and otherwise the detectors that reach it over all labeled cells
  * (MV if none does); without labels every column takes MV ∪ RULE.
  */
object Raha {
  import Cells.Cell

  /** The shared missing-value tokens plus spellings Raha's MV detector
    * also treats as missing.
    */
  private val MvTokens = (Tabular.MvTokens ++ Seq("NULL", "na", "NA", "?")).toSet

  /** FREQ flags values seen at most max(1, this share × tuples) times in their column. */
  private val FreqThreshold = 0.005

  private val Detectors = Seq("MV", "FORMAT", "FREQ", "RULE")

  private val DigitRun  = "[0-9]+".r
  private val LetterRun = "[A-Za-z]+".r
  private val SpaceRun  = "\\s+".r

  /** Character-class signature: digit runs -> 9, letter runs -> a,
    * whitespace runs -> _ ; punctuation survives. "12 Main St." -> "9 a a."
    */
  private def signature(v: String): String =
    SpaceRun.replaceAllIn(LetterRun.replaceAllIn(DigitRun.replaceAllIn(v, "9"), "a"), "_")

  /** Rows each detector flags in each column: `(attr, detector) -> row
    * indexes` of `table`; pairs that flag nothing are absent.
    */
  def detectorFlags(table: Tabular, rules: Seq[Rule]): Map[(String, String), BitSet] = {
    val n = table.tids.length
    val out = mutable.Map.empty[(String, String), mutable.BitSet]
    def mark(attr: String, det: String, i: Int): Unit =
      out.getOrElseUpdate((attr, det), mutable.BitSet.empty) += i

    for ((a, j) <- table.attrs.zipWithIndex) {
      val counts = mutable.HashMap.empty[String, Int]
      table.rows.foreach(r => counts(r(j)) = counts.getOrElse(r(j), 0) + 1)
      val sigs = counts.map { case (v, _) => v -> signature(v) }
      val sigCounts = mutable.HashMap.empty[String, Int]
      counts.foreach { case (v, c) => sigCounts(sigs(v)) = sigCounts.getOrElse(sigs(v), 0) + c }
      // only meaningful when the column actually has a dominant format
      val domSig = sigCounts.collectFirst { case (sig, c) if c > n * 0.5 => sig }
      val rareBar = math.max(1.0, FreqThreshold * n)
      val hits = counts.map { case (v, c) =>
        v -> Seq("MV" -> MvTokens(v), "FORMAT" -> domSig.exists(_ != sigs(v)), "FREQ" -> (c <= rareBar))
          .collect { case (det, true) => det }
      }
      for (i <- table.rows.indices; det <- hits(table.rows(i)(j))) mark(a, det, i)
    }
    // RULE flags likely culprits (group minorities), not whole violating
    // groups — group-level flags would tank precision and get deselected.
    // Its winner is the top count's smallest value, missing values included.
    val idx = new RuleIndex(table, rules)
    for (fd <- idx.fds; g <- idx.groups(fd).valuesIterator if g.nDistinct > 1) {
      val rhs = table.attrIdx(fd.rhs)
      val winner = g.tied.min(RuleIndex.Utf8Order)
      g.rows.filter(table.rows(_)(rhs) != winner).foreach(mark(fd.rhs, "RULE", _))
    }
    for (dc <- idx.dcs) {
      val degrees = idx.degrees(dc)
      for (a <- dc.attrs; i <- degrees.indices if degrees(i) > 0) mark(a, "RULE", i)
    }
    out.view.mapValues(_.toImmutable: BitSet).toMap
  }

  /** Run detection on the driver. `labeled` maps (tid, attr) -> clean
    * value for the labeled tuples; a labeled cell is an error iff dirty !=
    * clean there. Returns the flagged cells.
    */
  def flag(table: Tabular, rules: Seq[Rule], labeled: Map[Cell, String]): Set[Cell] = {
    val flags = detectorFlags(table, rules)
    val selected: Map[String, Seq[String]] =
      if (labeled.isEmpty) table.attrs.map(_ -> Seq("MV", "RULE")).toMap
      else selectDetectors(table, flags, labeled)
    (for {
      a <- table.attrs
      d <- selected(a)
      i <- flags.getOrElse((a, d), BitSet.empty).iterator
    } yield (table.tids(i), a)).toSet
  }

  /** [[flag]] over a relation: collects `df` once and returns the flagged
    * cells `(__tid, attr)` as a local relation sorted by (tid, attr).
    */
  def detect(df: DataFrame, attrs: Seq[String], rules: Seq[Rule],
             labeled: Map[Cell, String]): DataFrame =
    Cells.cellFrame(df.sparkSession, flag(Tabular.collect(df, attrs), rules, labeled))

  /** Per-column detector selection by F1 against the labeled cells. */
  private def selectDetectors(table: Tabular, flags: Map[(String, String), BitSet],
                              labeled: Map[Cell, String]): Map[String, Seq[String]] = {
    val truth: Map[Cell, Boolean] = labeled.map { case (k @ (tid, a), cleanV) =>
      val dirtyV = for (i <- table.tidIdx.get(tid); j <- table.attrIdx.get(a)) yield table.rows(i)(j)
      k -> (dirtyV.getOrElse(cleanV) != cleanV)
    }
    def hits(a: String, d: String): Long => Boolean = {
      val rows = flags.getOrElse((a, d), BitSet.empty)
      tid => table.tidIdx.get(tid).exists(rows)
    }

    def f1Of(scope: Map[Cell, Boolean], hit: Cell => Boolean): Double = {
      val nErr = scope.count(_._2)
      val tp = scope.count { case (c, e) => e && hit(c) }
      val fp = scope.count { case (c, e) => !e && hit(c) }
      val p  = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
      val r  = if (nErr == 0) 0.0 else tp.toDouble / nErr
      if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    }
    // pooled selection over ALL labeled cells: the fallback for columns
    // whose 20 labeled tuples happen to contain no error
    val pooled = Detectors.filter { d =>
      f1Of(truth, { case (tid, a) => hits(a, d)(tid) }) >= 0.5
    }
    table.attrs.map { a =>
      val colTruth = truth.filter { case ((_, at), _) => at == a }
      val scored = Detectors.map { d =>
        val hit = hits(a, d)
        d -> f1Of(colTruth, { case (tid, _) => hit(tid) })
      }
      val good = scored.filter(_._2 >= 0.5).map(_._1)
      val colHasLabeledErrors = colTruth.exists(_._2)
      // per-column evidence wins; without it fall back to the pooled pick,
      // and as a last resort stay conservative with MV only
      a -> (if (good.nonEmpty) good
            else if (!colHasLabeledErrors && pooled.nonEmpty) pooled
            else Seq("MV"))
    }.toMap
  }
}
