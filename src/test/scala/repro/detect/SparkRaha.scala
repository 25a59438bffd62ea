package repro.detect

import org.apache.spark.sql.{DataFrame, functions => F}
import repro.core.{Cells, DC, FD, Rule, Tabular, Violations}

/** Reference implementation of [[Raha]]: the same detectors and selection
  * as DataFrame programs over the melted cell view. Tests check the driver
  * detector against it, detector by detector and on the final flagged set.
  */
object SparkRaha {
  import Cells.Tid

  /** The shared missing-value tokens plus spellings Raha's MV detector
    * also treats as missing.
    */
  private val MvTokens = Tabular.MvTokens ++ Seq("NULL", "na", "NA", "?")

  /** FREQ flags values seen at most max(1, this share × tuples) times in their column. */
  private val FreqThreshold = 0.005

  /** Character-class signature: digit runs -> 9, letter runs -> a,
    * whitespace runs -> _ ; punctuation survives. "12 Main St." -> "9 a a."
    */
  private def sigCol(c: org.apache.spark.sql.Column): org.apache.spark.sql.Column = {
    val digits  = F.regexp_replace(c, "[0-9]+", "9")
    val letters = F.regexp_replace(digits, "[A-Za-z]+", "a")
    F.regexp_replace(letters, "\\s+", "_")
  }

  /** All candidate detections with their source detector:
    * `(__tid, attr, detector)`.
    */
  def detectorFlags(df: DataFrame, attrs: Seq[String], rules: Seq[Rule],
                    freqThreshold: Double = FreqThreshold): DataFrame =
    flagsOver(Cells.melt(df, attrs), df, rules, freqThreshold)

  /** [[detectorFlags]] over `cells`, the melted `df`. */
  private def flagsOver(cells: DataFrame, df: DataFrame, rules: Seq[Rule],
                        freqThreshold: Double): DataFrame = {
    val n = df.count().toDouble

    val mv = cells.where(F.col("value").isin(MvTokens: _*))
      .select(F.col(Tid), F.col("attr"), F.lit("MV").as("detector"))

    val withSig = cells.withColumn("sig", sigCol(F.col("value")))
    val sigCounts = withSig.groupBy("attr", "sig").agg(F.count(F.lit(1)).as("cnt"))
    val domSig = sigCounts
      .groupBy("attr")
      .agg(F.max_by(F.col("sig"), F.col("cnt")).as("domSig"),
           F.max(F.col("cnt")).as("domCnt"))
    val fmt = withSig.join(domSig, "attr")
      // only meaningful when the column actually has a dominant format
      .where(F.col("domCnt") > F.lit(n * 0.5) && F.col("sig") =!= F.col("domSig"))
      .select(F.col(Tid), F.col("attr"), F.lit("FORMAT").as("detector"))

    val valCounts = cells.groupBy("attr", "value").agg(F.count(F.lit(1)).as("cnt"))
    val freq = cells.join(valCounts, Seq("attr", "value"))
      .where(F.col("cnt") <= F.greatest(F.lit(1.0), F.lit(freqThreshold * n)))
      .select(F.col(Tid), F.col("attr"), F.lit("FREQ").as("detector"))

    // RULE flags likely culprits (group minorities), not whole violating
    // groups — group-level flags would tank precision and get deselected
    val fdFlags = Rule.asFds(rules)
      .map(fd => fdMinorityCells(df, fd))
    val dcFlags = rules.collect { case dc: DC if Rule.dcAsFd(dc).isEmpty => dc }
      .map(dc => Violations.dcViolatingCells(df, dc).select(F.col(Tid), F.col("attr")))
    val rule = (fdFlags ++ dcFlags)
      .reduceOption(_ union _)
      .getOrElse(Cells.noRepairs(df).select(F.col(Tid), F.col("attr")))
      .select(F.col(Tid), F.col("attr"), F.lit("RULE").as("detector"))

    mv.union(fmt).union(freq).union(rule).distinct()
  }

  /** Run detection. `labeled` maps (tid, attr) -> clean value for the
    * labeled tuples; a labeled cell is an error iff dirty != clean there.
    * Returns flagged cells `(__tid, attr)`, materialized; the melted cells
    * and detector flags cached on the way are released before it returns.
    */
  def detect(df: DataFrame, attrs: Seq[String], rules: Seq[Rule],
             labeled: Map[(Long, String), String]): DataFrame = {
    val cells = Cells.melt(df, attrs).cache()
    val flags = flagsOver(cells, df, rules, FreqThreshold).cache()
    val selected: Map[String, Seq[String]] =
      if (labeled.isEmpty) attrs.map(_ -> Seq("MV", "RULE")).toMap
      else selectDetectors(df, attrs, flags, labeled)

    val sel = df.sparkSession.createDataFrame(
      selected.toSeq.flatMap { case (a, ds) => ds.map(d => (a, d)) }
    ).toDF("attr", "detector")
    val flagged = flags.join(sel, Seq("attr", "detector"))
      .select(F.col(Tid), F.col("attr"))
      .distinct()
      .localCheckpoint()
    flags.unpersist()
    cells.unpersist()
    flagged
  }

  /** Per-column detector selection by F1 against the labeled cells. */
  private def selectDetectors(df: DataFrame, attrs: Seq[String], flags: DataFrame,
                              labeled: Map[(Long, String), String]): Map[String, Seq[String]] = {
    val labeledTids = labeled.keys.map(_._1).toSet.toSeq
    // dirty values of labeled tuples
    val dirtyVals: Map[(Long, String), String] = Cells
      .melt(df.where(F.col(Tid).isin(labeledTids: _*)), attrs)
      .collect()
      .map(r => (r.getLong(0), r.getString(1)) -> r.getString(2))
      .toMap
    val truth: Map[(Long, String), Boolean] = labeled.map { case (k, cleanV) =>
      k -> (dirtyVals.getOrElse(k, cleanV) != cleanV)
    }
    val flagged: Map[(String, String), Set[Long]] = flags
      .where(F.col(Tid).isin(labeledTids: _*))
      .collect()
      .map(r => (r.getString(1), r.getString(2)) -> r.getLong(0))
      .groupBy(_._1)
      .map { case (k, v) => k -> v.map(_._2).toSet }

    val detectors = Seq("MV", "FORMAT", "FREQ", "RULE")
    def f1Of(scope: Map[(Long, String), Boolean],
             hits: ((Long, String)) => Boolean): Double = {
      val nErr = scope.count(_._2)
      val tp = scope.count { case (c, e) => e && hits(c) }
      val fp = scope.count { case (c, e) => !e && hits(c) }
      val p  = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
      val r  = if (nErr == 0) 0.0 else tp.toDouble / nErr
      if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    }
    // pooled selection over ALL labeled cells: the fallback for columns
    // whose 20 labeled tuples happen to contain no error
    val pooled = detectors.filter { d =>
      f1Of(truth, { case (tid, a) => flagged.getOrElse((a, d), Set.empty).contains(tid) }) >= 0.5
    }
    attrs.map { a =>
      val colTruth = truth.filter { case ((_, at), _) => at == a }
      val scored = detectors.map { d =>
        val hits = flagged.getOrElse((a, d), Set.empty)
        d -> f1Of(colTruth, { case (tid, _) => hits.contains(tid) })
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

  /** Likely-culprit cells of FD violations: RHS cells whose value differs
    * from their group's majority (ties resolved lexicographically). Much
    * higher precision than flagging whole violating groups — used by the
    * Raha detector ensemble.
    */
  private def fdMinorityCells(df: DataFrame, fd: FD): DataFrame = {
    import org.apache.spark.sql.expressions.Window
    val pats = Violations.fdPatternCounts(df, fd)
    val w    = Window.partitionBy("lhsKey").orderBy(F.col("cnt").desc, F.col("rhsVal").asc)
    val tot  = Window.partitionBy("lhsKey")
    val winners = pats
      .withColumn("rk", F.row_number().over(w))
      .withColumn("nDistinct", F.count(F.lit(1)).over(tot))
      .where(F.col("rk") === 1 && F.col("nDistinct") > 1)
      .select(F.col("lhsKey"), F.col("rhsVal").as("winner"))
    df.select(F.col(Tid), Violations.groupKey(fd.lhs).as("lhsKey"), F.col(fd.rhs).as("rhsVal"))
      .join(winners, "lhsKey")
      .where(F.col("rhsVal") =!= F.col("winner"))
      .select(F.col(Tid), F.lit(fd.rhs).as("attr"))
  }
}
