package repro.algos

import repro.core._
import repro.ml.ReferenceNaiveBayes

/** Reference implementation of [[BoostClean]]: every candidate action is
  * scored by cloning the rows it rewrites and refitting the whole
  * [[ReferenceNaiveBayes]] model. Tests check the per-feature refit
  * against it on the benchmark datasets.
  */
object ReferenceBoostClean extends RepairAlgorithm {
  override val name = "Boostclean"
  override val category = "Model-Driven"

  /** Boosting rounds (size of the composed repair sequence). */
  private val Rounds = 6

  private sealed trait Action { def attr: String; def label: String }
  private final case class ImputeMode(attr: String)   extends Action { val label = s"mode($attr)" }
  private final case class ImputeMean(attr: String)   extends Action { val label = s"mean($attr)" }
  private final case class ImputeMedian(attr: String) extends Action { val label = s"median($attr)" }

  override def repair(in: RepairInput): RepairResult = {
    val tab = in.table
    val n = tab.tids.length
    val target = in.classTarget.getOrElse(in.attrs.last)
    val targetJ = tab.attrIdx(target)

    // ---- quantitative detection per attribute ----
    val freq: Array[Map[String, Int]] = in.attrs.indices.map { j =>
      tab.rows.indices.groupBy(i => tab.rows(i)(j)).view.mapValues(_.size).toMap
    }.toArray
    def numericShare(j: Int): Double =
      tab.rows.indices.count(i => parseNum(tab.rows(i)(j)).isDefined).toDouble / math.max(1, n)
    val isNumericCol: Array[Boolean] = in.attrs.indices.map(j =>
      in.numericAttrs.contains(in.attrs(j)) || numericShare(j) > 0.9).toArray
    /** Cells an action on attribute j would rewrite: MVs, numeric breaks,
      * and low-support values. The support bar is 1% of the relation —
      * BoostClean's quantitative detectors flag aggressively, which is
      * exactly what lets mode imputation stomp near-unique columns
      * (Table 4's strongly negative EDR).
      */
    val rareBar = math.max(1, n / 100)
    def flaggedRows(j: Int): Seq[Int] = tab.rows.indices.filter { i =>
      val v = tab.rows(i)(j)
      Tabular.MvTokens.contains(v) || freq(j)(v) <= rareBar ||
        (isNumericCol(j) && parseNum(v).isEmpty)
    }
    val flaggedByAttr: Array[Seq[Int]] = in.attrs.indices.map(flaggedRows).toArray

    // ---- candidate action library ----
    // actions whose detector flags nothing are no-ops: drop them so the
    // boosting rounds are spent on conditional repairs that can matter
    val actions: Seq[Action] = in.attrs.zipWithIndex
      .filter { case (a, j) => a != target && flaggedByAttr(j).nonEmpty }
      .flatMap { case (a, j) =>
        val base = Seq(ImputeMode(a))
        if (isNumericCol(j)) base ++ Seq(ImputeMean(a), ImputeMedian(a)) else base
      }

    // both inputs of an imputation are fixed for the run, so each action's
    // value is computed once, not once per candidate evaluation
    val flaggedSets: Array[collection.BitSet] = flaggedByAttr.map(collection.immutable.BitSet(_: _*))
    def imputeValue(act: Action): String = {
      val j = tab.attrIdx(act.attr)
      val goodVals = tab.rows.indices
        .filterNot(flaggedSets(j))
        .map(i => tab.rows(i)(j))
      act match {
        case ImputeMode(_) =>
          if (goodVals.isEmpty) "" else goodVals.groupBy(identity).toSeq
            .maxBy { case (v, vs) => (vs.size, v) }(
              Ordering.Tuple2(Ordering.Int, Ordering.String.reverse))._1
        case ImputeMean(_) =>
          val nums = goodVals.flatMap(parseNum)
          if (nums.isEmpty) "" else formatNum(nums.sum / nums.size, goodVals)
        case ImputeMedian(_) =>
          val nums = goodVals.flatMap(parseNum).sorted
          if (nums.isEmpty) "" else formatNum(nums(nums.size / 2), goodVals)
      }
    }

    val imputed: Map[Action, String] = actions.map(a => a -> imputeValue(a)).toMap

    def applyAction(rows: Array[Array[String]], act: Action): Array[Array[String]] = {
      val j = tab.attrIdx(act.attr)
      val v = imputed(act)
      val out = rows.clone()
      for (i <- flaggedByAttr(j)) {
        val r = out(i).clone(); r(j) = v; out(i) = r
      }
      out
    }

    // ---- boosting loop: pick the action sequence by validation accuracy ----
    // train/validate on bounded samples: BoostClean retrains once per
    // candidate action per round, and batching keeps that linear-time
    // (Table 6 shows it finishing at every size)
    val valIdx   = sample(tab.tids.indices.filter(i => tab.tids(i) % 5 == 0), 1000)
    val trainIdx = sample(tab.tids.indices.filterNot(i => tab.tids(i) % 5 == 0), 4000)
    def valAccuracy(rows: Array[Array[String]]): Double = {
      val featJ = in.attrs.indices.filter(_ != targetJ)
      def feats(idx: Seq[Int]) = idx.map(i => featJ.map(rows(i)).toArray).toArray
      def ys(idx: Seq[Int])    = idx.map(i => rows(i)(targetJ)).toArray
      if (trainIdx.isEmpty || valIdx.isEmpty) 0.0
      else new ReferenceNaiveBayes().fit(feats(trainIdx), ys(trainIdx)).accuracy(feats(valIdx), ys(valIdx))
    }

    var current = tab.rows
    var currentAcc = valAccuracy(current)
    var remaining = actions
    val sequence = scala.collection.mutable.ArrayBuffer.empty[Action]
    var round = 0
    while (round < Rounds && remaining.nonEmpty) {
      in.budget.checkTime(s"$name round $round")
      val scored = remaining.map { act =>
        in.budget.checkTime(s"$name eval ${act.label}")
        val rows = applyAction(current, act)
        (act, valAccuracy(rows), rows)
      }
      val (bestAct, bestAcc, bestRows) =
        scored.maxBy { case (a, acc, _) => (acc, a.label) }(
          Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.String.reverse))
      // small tolerance: validation noise should not stop the sequence,
      // so actions are kept while accuracy does not clearly drop
      if (bestAcc >= currentAcc - 0.02) {
        sequence += bestAct
        current = bestRows
        currentAcc = math.max(currentAcc, bestAcc)
        remaining = remaining.filterNot(_ == bestAct)
      } else {
        remaining = Nil
      }
      round += 1
    }

    val detections = sequence.flatMap(a =>
      flaggedByAttr(tab.attrIdx(a.attr)).map(i => (tab.tids(i), a.attr))).distinct
    RepairResult(in.spark, tab.copy(rows = current), Some(detections.toSet))
  }

  /** Deterministic stride sample of at most `k` indices. */
  private def sample(idx: Seq[Int], k: Int): Seq[Int] =
    if (idx.size <= k) idx
    else {
      val stride = idx.size.toDouble / k
      (0 until k).map(i => idx((i * stride).toInt))
    }

  private def parseNum(s: String): Option[Double] =
    try { val t = s.trim; if (t.isEmpty) None else Some(t.toDouble) }
    catch { case _: NumberFormatException => None }

  private def formatNum(x: Double, sample: Seq[String]): String =
    if (sample.exists(_.contains('.'))) f"$x%.2f" else math.round(x).toString
}
