package repro.ml

import scala.collection.Searching.Found
import scala.collection.mutable

/** Multinomial Naive Bayes over categorical string features.
  *
  * Substrate for Scare (per-attribute value prediction from the other
  * attributes) and for BoostClean's downstream classifier. Driver-side:
  * the benchmark datasets are small, and the paper itself notes all core
  * algorithms are main-memory (Section 7).
  *
  * Labels are indexes into their sorted list. Each feature is its own
  * table: value -> log-likelihood of each label seen with it, plus the
  * per-label default for any other (label, value). A table depends only on
  * its column and the labels, so [[withFeature]] refits one feature and
  * shares the rest.
  */
final class NaiveBayes(alpha: Double = 1.0) {
  import NaiveBayes.Feature

  private var labels: Array[String] = Array.empty
  private var labelCounts: Array[Int] = Array.empty
  private var labelLogPrior: Array[Double] = Array.empty
  // label index of each training row, kept to refit a feature
  private var y: Array[Int] = Array.empty
  private var feats: Array[Feature] = Array.empty

  /** Fit on rows of features plus a label per row. */
  def fit(features: Array[Array[String]], y: Array[String]): this.type = {
    require(features.length == y.length && features.nonEmpty, "empty or mismatched training data")
    labels = y.distinct.sorted
    this.y = y.map(labels.zipWithIndex.toMap)
    labelCounts = new Array[Int](labels.length)
    this.y.foreach(l => labelCounts(l) += 1)
    labelLogPrior = labelCounts.map(c => math.log(c / y.length.toDouble))
    feats = Array.tabulate(features(0).length)(j => feature(features.map(_(j))))
    this
  }

  /** This model with feature `f` refit on `column`, the feature's new value
    * in each training row; the other features' tables are shared.
    */
  def withFeature(f: Int, column: Array[String]): NaiveBayes = {
    require(column.length == y.length, "column and training rows differ in length")
    val m = new NaiveBayes(alpha)
    m.labels = labels; m.labelCounts = labelCounts; m.labelLogPrior = labelLogPrior; m.y = y
    m.feats = feats.updated(f, feature(column))
    m
  }

  /** One feature's table, from its value in each training row. */
  private def feature(column: Array[String]): Feature = {
    val counts = mutable.HashMap.empty[String, mutable.Map[Int, Int]]
    for (i <- column.indices) counts.getOrElseUpdate(column(i), mutable.Map.empty[Int, Int].withDefaultValue(0))(y(i)) += 1
    val v = counts.size.toDouble
    Feature(counts.map { case (x, cs) =>
      x -> cs.iterator.map { case (l, c) => (l, math.log((c + alpha) / (labelCounts(l) + alpha * (v + 1)))) }.toArray
    }, Array.tabulate(labels.length)(l => math.log(alpha / (labelCounts(l) + alpha * (v + 1)))))
  }

  /** Log-posterior of every label: the prior, then the features in column order. */
  private def scores(row: Array[String]): Array[Double] = {
    val s = labelLogPrior.clone()
    for (j <- feats.indices) {
      val t = feats(j).default.clone()
      for (seen <- feats(j).logLik.get(row(j)); (l, ll) <- seen) t(l) = ll
      for (l <- s.indices) s(l) += t(l)
    }
    s
  }

  /** Most probable label for one feature row. */
  def predict(row: Array[String]): String = predictWithScore(row)._1

  /** (label, log-posterior up to a constant). */
  def predictWithScore(row: Array[String]): (String, Double) = {
    require(labels.nonEmpty, "predict before fit")
    val s = scores(row)
    var bestL = 0; var bestS = Double.NegativeInfinity
    for (l <- s.indices) if (s(l) > bestS) { bestS = s(l); bestL = l }
    (labels(bestL), bestS)
  }

  /** Log-posterior (up to a constant) of a specific label. */
  def scoreOf(row: Array[String], label: String): Double = labels.search(label) match {
    case Found(l) => scores(row)(l)
    case _        => Double.NegativeInfinity
  }

  /** Accuracy on a held-out set. */
  def accuracy(features: Array[Array[String]], y: Array[String]): Double =
    if (features.isEmpty) 0.0
    else features.indices.count(i => predict(features(i)) == y(i)).toDouble / features.length

  /** Known labels after fit. */
  def classes: Seq[String] = labels.toSeq
}

object NaiveBayes {
  /** Log-likelihoods of the (label, value) pairs seen in training, by value,
    * and the per-label default of any other pair.
    */
  private final case class Feature(logLik: collection.Map[String, Array[(Int, Double)]], default: Array[Double])
}
