package repro.core

import org.apache.spark.sql.DataFrame

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
  import Cells.Cell

  private def f1(p: Double, r: Double): Double = if (p + r == 0) 0.0 else 2 * p * r / (p + r)

  private def ratio(n: Long, d: Long): Double = if (d == 0) 0.0 else n.toDouble / d

  /** Score a repair from its cell delta, on the driver. `errors` is the
    * dataset's error set E (cell -> clean value), `changes` the run's delta
    * Δ (cell -> repaired value). `detections` defaults to the changed cells
    * when the algorithm reports no explicit detection result (the paper's
    * "consistent evaluation approach based on the disparities between
    * repaired and original cells"). Both sets fit the driver: about 24k
    * cells on the largest Table 6 subset (4 % of 40k × 15).
    */
  def score(errors: Map[Cell, String], changes: Map[Cell, String],
            detections: Option[Set[Cell]] = None): RepairEval = {
    val oec = errors.size.toLong
    val changed = changes.size.toLong
    val dec = changes.count { case (c, v) => errors.get(c).contains(v) }.toLong
    val iec = changes.keys.count(c => !errors.contains(c)).toLong

    val erP = ratio(dec, changed)
    val erR = ratio(dec, oec)

    val det = detections.getOrElse(changes.keySet)
    val hit = det.count(errors.contains).toLong
    val edP = ratio(hit, det.size.toLong)
    val edR = ratio(hit, oec)

    RepairEval(oec, dec, iec, changed,
      edr = if (oec == 0) 0.0 else (dec - iec).toDouble / oec,
      erPrecision = erP, erRecall = erR, erF1 = f1(erP, erR),
      edPrecision = edP, edRecall = edR, edF1 = f1(edP, edR))
  }

  /** Evaluate a repair given as relations: collects them to the driver
    * and [[score]]s the two diffs. The harness scores from the dataset's
    * stored table and error set instead.
    */
  def evaluate(dirty: DataFrame, repaired: DataFrame, clean: DataFrame,
               attrs: Seq[String], detections: Option[DataFrame] = None): RepairEval = {
    val d = Tabular.collect(dirty, attrs)
    score(d.diff(Tabular.collect(clean, attrs)), d.diff(Tabular.collect(repaired, attrs)),
      detections.map(Cells.cellSet))
  }
}
