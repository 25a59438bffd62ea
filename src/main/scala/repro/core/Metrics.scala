package repro.core

import org.apache.spark.sql.{DataFrame, functions => F}

/** Evaluation of one repair run (Section 4.1 of the paper).
  *
  * - OEC: original error count (cells where dirty != clean)
  * - DEC: decreased error count (errors turned into their clean value)
  * - IEC: introduced error count (correct cells turned wrong)
  * - EDR = (DEC - IEC) / OEC — the paper's Error Drop Rate
  * - ER_*: repair precision/recall/F1 over *changed* cells
  * - ED_*: detection precision/recall/F1 over *flagged* cells
  */
final case class RepairEval(
    oec: Long,
    dec: Long,
    iec: Long,
    changed: Long,
    edr: Double,
    erPrecision: Double,
    erRecall: Double,
    erF1: Double,
    edPrecision: Double,
    edRecall: Double,
    edF1: Double,
)

object Metrics {
  import Cells.Tid

  private def f1(p: Double, r: Double): Double = if (p + r == 0) 0.0 else 2 * p * r / (p + r)

  private def ratio(n: Long, d: Long): Double = if (d == 0) 0.0 else n.toDouble / d

  /** Cells where `before` and `after` differ, collected as
    * `(tid, attr) -> new value`. Error and change sets fit the driver:
    * about 24k cells on the largest Table 6 subset (4 % of 40k × 15).
    */
  private def diff(before: DataFrame, after: DataFrame,
                   attrs: Seq[String]): Map[(Long, String), String] =
    Cells.changedCells(before, after, attrs)
      .select(F.col(Tid), F.col("attr"), F.col("new")).collect()
      .map(r => (r.getLong(0), r.getString(1)) -> r.getString(2)).toMap

  /** Evaluate a repair. `detections` defaults to the changed cells when the
    * algorithm reports no explicit detection result (the paper's "consistent
    * evaluation approach based on the disparities between repaired and
    * original cells").
    */
  def evaluate(dirty: DataFrame, repaired: DataFrame, clean: DataFrame,
               attrs: Seq[String], detections: Option[DataFrame] = None): RepairEval = {
    val errors  = diff(dirty, clean, attrs)    // E: cell -> clean value
    val changes = diff(dirty, repaired, attrs) // Δ: cell -> repaired value
    val oec = errors.size.toLong
    val changed = changes.size.toLong
    val dec = changes.count { case (c, v) => errors.get(c).contains(v) }.toLong
    val iec = changes.keys.count(c => !errors.contains(c)).toLong

    val erP = ratio(dec, changed)
    val erR = ratio(dec, oec)

    val det = detections
      .map(_.select(F.col(Tid), F.col("attr")).collect()
        .map(r => (r.getLong(0), r.getString(1))).toSet)
      .getOrElse(changes.keySet)
    val hit = det.count(errors.contains).toLong
    val edP = ratio(hit, det.size.toLong)
    val edR = ratio(hit, oec)

    RepairEval(oec, dec, iec, changed,
      edr = if (oec == 0) 0.0 else (dec - iec).toDouble / oec,
      erPrecision = erP, erRecall = erR, erF1 = f1(erP, erR),
      edPrecision = edP, edRecall = edR, edF1 = f1(edP, edR))
  }

  /** Measured error rate of `dirty` against `clean` (Table 5). */
  def errorRate(dirty: DataFrame, clean: DataFrame, attrs: Seq[String]): Double =
    ratio(Cells.changedCells(dirty, clean, attrs).count(), dirty.count() * attrs.size)
}
