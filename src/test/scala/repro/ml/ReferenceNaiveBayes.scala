package repro.ml

import scala.collection.mutable

/** Reference implementation of [[NaiveBayes]]: one map of
  * `(label, value)` tuples per feature, refit from scratch on every call.
  * Tests check the per-feature model against it.
  */
final class ReferenceNaiveBayes(alpha: Double = 1.0) {

  private var labels: Array[String] = Array.empty
  private var labelLogPrior: Map[String, Double] = Map.empty
  // per feature index: (label, value) -> log P(value | label)
  private var condLog: Array[Map[(String, String), Double]] = Array.empty
  private var condDefault: Array[Map[String, Double]] = Array.empty
  private var nFeatures: Int = 0

  /** Fit on rows of features plus a label per row. */
  def fit(features: Array[Array[String]], y: Array[String]): this.type = {
    require(features.length == y.length && features.nonEmpty, "empty or mismatched training data")
    nFeatures = features(0).length
    val labelCounts = mutable.Map.empty[String, Int].withDefaultValue(0)
    y.foreach(l => labelCounts(l) += 1)
    labels = labelCounts.keys.toArray.sorted
    val n = y.length.toDouble
    labelLogPrior = labels.map(l => l -> math.log(labelCounts(l) / n)).toMap

    condLog = new Array(nFeatures)
    condDefault = new Array(nFeatures)
    for (j <- 0 until nFeatures) {
      val counts = mutable.Map.empty[(String, String), Int].withDefaultValue(0)
      val domain = mutable.Set.empty[String]
      for (i <- features.indices) {
        counts((y(i), features(i)(j))) += 1
        domain += features(i)(j)
      }
      val v = domain.size.toDouble
      condLog(j) = counts.iterator.map { case ((l, x), c) =>
        (l, x) -> math.log((c + alpha) / (labelCounts(l) + alpha * (v + 1)))
      }.toMap
      condDefault(j) = labels.map { l =>
        l -> math.log(alpha / (labelCounts(l) + alpha * (v + 1)))
      }.toMap
    }
    this
  }

  /** Most probable label for one feature row. */
  def predict(row: Array[String]): String = predictWithScore(row)._1

  /** (label, log-posterior up to a constant). */
  def predictWithScore(row: Array[String]): (String, Double) = {
    require(labels.nonEmpty, "predict before fit")
    var bestL = labels(0); var bestS = Double.NegativeInfinity
    for (l <- labels) {
      var s = labelLogPrior(l)
      var j = 0
      while (j < nFeatures) {
        s += condLog(j).getOrElse((l, row(j)), condDefault(j)(l))
        j += 1
      }
      if (s > bestS) { bestS = s; bestL = l }
    }
    (bestL, bestS)
  }

  /** Log-posterior (up to a constant) of a specific label. */
  def scoreOf(row: Array[String], label: String): Double =
    if (!labels.contains(label)) Double.NegativeInfinity
    else {
      var s = labelLogPrior(label)
      var j = 0
      while (j < nFeatures) {
        s += condLog(j).getOrElse((label, row(j)), condDefault(j)(label))
        j += 1
      }
      s
    }

  /** Accuracy on a held-out set. */
  def accuracy(features: Array[Array[String]], y: Array[String]): Double =
    if (features.isEmpty) 0.0
    else features.indices.count(i => predict(features(i)) == y(i)).toDouble / features.length

  /** Known labels after fit. */
  def classes: Seq[String] = labels.toSeq
}
