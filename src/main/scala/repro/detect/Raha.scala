package repro.detect

import scala.collection.{BitSet, mutable}
import org.apache.spark.sql.DataFrame
import repro.core.{Cells, DC, Pred, PredOperand, Rule, Tabular}

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

  /** Strings in binary UTF-8 order (the order of code points), the order
    * Spark sorts strings in; `String.compareTo` differs on surrogate pairs.
    */
  private val Utf8Order: Ordering[String] = (x: String, y: String) => {
    var i = 0
    while (i < x.length && i < y.length && x.charAt(i) == y.charAt(i)) i += 1
    if (i == x.length || i == y.length) x.length compare y.length
    else x.codePointAt(i) compare y.codePointAt(i)
  }

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
    // groups — group-level flags would tank precision and get deselected
    for (fd <- Rule.asFds(rules)) {
      val rhs = table.attrIdx(fd.rhs)
      for (rows <- table.groupBy(fd.lhs).values) {
        val counts = rows.groupMapReduce(table.rows(_)(rhs))(_ => 1)(_ + _)
        if (counts.size > 1) {
          val top = counts.values.max
          val winner = counts.collect { case (v, c) if c == top => v }.min(Utf8Order)
          rows.filter(table.rows(_)(rhs) != winner).foreach(mark(fd.rhs, "RULE", _))
        }
      }
    }
    for (dc <- rules.collect { case dc: DC if Rule.dcAsFd(dc).isEmpty => dc }) {
      val rows = dcViolatingRows(table, dc)
      for (a <- dc.attrs; i <- rows) mark(a, "RULE", i)
    }
    out.view.mapValues(_.toImmutable: BitSet).toMap
  }

  /** Rows of tuples in a pair violating `dc`, either side. Equality
    * predicates between tuples group the candidates; the others filter
    * every ordered pair of distinct tuples inside a group. A numeric
    * operand is read as Spark's `try_cast(... AS DOUBLE)`, so a value that
    * does not parse makes its predicate false, as SQL's NULL does.
    */
  private def dcViolatingRows(table: Tabular, dc: DC): BitSet = {
    def strings(attr: String): Array[String] = { val j = table.attrIdx(attr); table.rows.map(_(j)) }
    def doubles(attr: String): Array[java.lang.Double] = strings(attr).map(toDouble)
    // whether a predicate holds for t1 = row i, t2 = row k
    val filters: Array[(Int, Int) => Boolean] = dc.filterPreds.map { p =>
      val test = opTest(p.op)
      (p.numeric, p.right) match {
        case (true, PredOperand.Attr(b)) =>
          val ((l, lOk), (r, rOk)) = (unboxed(doubles(p.left)), unboxed(doubles(b)))
          (i: Int, k: Int) => lOk(i) && rOk(k) && test(compareDoubles(l(i), r(k)))
        case (true, PredOperand.Const(v)) =>
          val ((l, lOk), c) = (unboxed(doubles(p.left)), toDouble(v))
          (i: Int, _: Int) => c != null && lOk(i) && test(compareDoubles(l(i), c))
        case (false, PredOperand.Attr(b)) =>
          val (l, r) = (strings(p.left), strings(b))
          (i: Int, k: Int) => test(Utf8Order.compare(l(i), r(k)))
        case (false, PredOperand.Const(v)) =>
          val l = strings(p.left)
          (i: Int, _: Int) => test(Utf8Order.compare(l(i), v))
      }
    }.toArray
    // join keys as SQL equality sees them: no NULL part, -0.0 = 0.0, NaN = NaN
    def keys(attrs: Seq[(String, Boolean)]): Array[Option[Seq[Any]]] = {
      val cols: Seq[Int => Any] = attrs.map {
        case (a, true) =>
          val xs = doubles(a)
          i => if (xs(i) == null) null else java.lang.Double.doubleToLongBits(xs(i) + 0.0)
        case (a, false) =>
          val xs = strings(a)
          xs(_)
      }
      Array.tabulate(table.rows.length) { i =>
        val k = cols.map(_(i))
        if (k.contains(null)) None else Some(k)
      }
    }
    val eqs = dc.equalityPreds.collect { case Pred(l, _, PredOperand.Attr(r), numeric) => (l, r, numeric) }
    val (lefts, rights) = (keys(eqs.map(e => (e._1, e._3))), keys(eqs.map(e => (e._2, e._3))))
    val byKey: Map[Seq[Any], Array[Int]] = rights.indices.flatMap(k => rights(k).map(_ -> k))
      .groupMap(_._1)(_._2).view.mapValues(_.toArray).toMap
    def violates(i: Int, k: Int): Boolean = k != i && filters.forall(_(i, k))
    val out = mutable.BitSet.empty
    for (i <- lefts.indices; key <- lefts(i); group <- byKey.get(key); k <- group if violates(i, k)) {
      out += i; out += k
    }
    out
  }

  /** Doubles with a flag per value: false where the cast failed. */
  private def unboxed(xs: Array[java.lang.Double]): (Array[Double], Array[Boolean]) =
    (xs.map(x => if (x == null) 0.0 else x.doubleValue), xs.map(_ != null))

  /** SQL's order on doubles: -0.0 = 0.0, NaN = NaN and above every number. */
  private def compareDoubles(x: Double, y: Double): Int =
    if (x == y) 0 else java.lang.Double.compare(x, y)

  /** Spark's string-to-double cast, or null where `try_cast` gives NULL. */
  private def toDouble(s: String): java.lang.Double =
    try java.lang.Double.valueOf(s)
    catch {
      case _: NumberFormatException => s.trim.toLowerCase(java.util.Locale.ROOT) match {
        case "inf" | "+inf" | "infinity" | "+infinity" => Double.PositiveInfinity
        case "-inf" | "-infinity"                      => Double.NegativeInfinity
        case "nan"                                     => Double.NaN
        case _                                         => null
      }
    }

  private def opTest(op: String): Int => Boolean = op match {
    case "="  => _ == 0
    case "!=" => _ != 0
    case "<"  => _ < 0
    case ">"  => _ > 0
    case "<=" => _ <= 0
    case ">=" => _ >= 0
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
