package repro.ml

import org.scalacheck.{Gen, Prop, Test => SC}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class NaiveBayesSpec extends AnyFunSuite {
  import NaiveBayesSpec.Case

  private def xor(n: Int): (Array[Array[String]], Array[String]) = {
    val feats = Array.tabulate(n)(i => Array((i % 2).toString, ((i / 2) % 2).toString))
    val ys = feats.map(f => f(0)) // label copies feature 0
    (feats, ys)
  }

  test("fit rejects empty input") {
    assertThrows[IllegalArgumentException](new NaiveBayes().fit(Array.empty, Array.empty))
  }

  test("learns a deterministic single-feature mapping") {
    val (f, y) = xor(100)
    val nb = new NaiveBayes().fit(f, y)
    assert(nb.predict(Array("0", "0")) === "0")
    assert(nb.predict(Array("1", "1")) === "1")
    assert(nb.accuracy(f, y) === 1.0)
  }

  test("majority prior wins on unseen feature values") {
    val feats = Array.fill(9)(Array("a")) ++ Array.fill(1)(Array("b"))
    val ys = Array.fill(9)("yes") ++ Array("no")
    val nb = new NaiveBayes().fit(feats, ys)
    assert(nb.predict(Array("zzz")) === "yes")
  }

  test("classes are sorted and complete") {
    val nb = new NaiveBayes().fit(
      Array(Array("x"), Array("y"), Array("z")), Array("c", "a", "b"))
    assert(nb.classes === Seq("a", "b", "c"))
  }

  test("scoreOf unknown label is -inf") {
    val nb = new NaiveBayes().fit(Array(Array("x")), Array("a"))
    assert(nb.scoreOf(Array("x"), "nope") === Double.NegativeInfinity)
  }

  test("predictWithScore agrees with scoreOf") {
    val (f, y) = xor(40)
    val nb = new NaiveBayes().fit(f, y)
    val row = Array("1", "0")
    val (label, s) = nb.predictWithScore(row)
    assert(math.abs(s - nb.scoreOf(row, label)) < 1e-9)
    assert(nb.classes.forall(c => nb.scoreOf(row, c) <= s + 1e-9))
  }

  test("Laplace smoothing keeps unseen combinations finite") {
    val nb = new NaiveBayes().fit(
      Array(Array("p", "q"), Array("r", "s")), Array("1", "2"))
    val s = nb.scoreOf(Array("p", "s"), "1")
    assert(!s.isNegInfinity && !s.isNaN)
  }

  test("accuracy on empty evaluation set is 0") {
    val nb = new NaiveBayes().fit(Array(Array("x")), Array("a"))
    assert(nb.accuracy(Array.empty, Array.empty) === 0.0)
  }

  test("noisy labels still recover dominant signal") {
    val rnd = new scala.util.Random(4)
    val feats = Array.tabulate(500)(i => Array((i % 3).toString))
    val ys = feats.map(f => if (rnd.nextDouble() < 0.9) s"c${f(0)}" else "junk")
    val nb = new NaiveBayes().fit(feats, ys)
    assert(nb.predict(Array("0")) === "c0")
    assert(nb.predict(Array("2")) === "c2")
  }

  // Small alphabets make tied label scores common; `mirrored` copies every
  // training row under the next label, which ties those labels outright.
  // The new column and the validation rows draw values training never saw.
  private val cases: Gen[Case] = for {
    nf       <- Gen.choose(1, 4)
    nl       <- Gen.choose(1, 3)
    n        <- Gen.choose(1, 30)
    mirrored <- Gen.oneOf(false, true)
    rows     <- Gen.listOfN(n, Gen.listOfN(nf, Gen.oneOf("a", "b", "c")))
    ys       <- Gen.listOfN(n, Gen.choose(0, nl - 1))
    f        <- Gen.choose(0, nf - 1)
    column   <- Gen.listOfN(n, Gen.oneOf("a", "b", "d", "e"))
    nv       <- Gen.frequency(1 -> Gen.const(0), 4 -> Gen.choose(1, 12))
    valX     <- Gen.listOfN(nv, Gen.listOfN(nf, Gen.oneOf("a", "b", "c", "d", "e", "z")))
    valY     <- Gen.listOfN(nv, Gen.choose(0, nl))
  } yield {
    val copies = if (mirrored) 2 else 1
    Case(Array.fill(copies)(rows.map(_.toArray)).flatten,
      (0 until copies).flatMap(c => ys.map(l => s"l${(l + c) % nl}")).toArray, f,
      Array.fill(copies)(column).flatten, valX.map(_.toArray).toArray, valY.map(l => s"l$l").toArray)
  }

  test("withFeature gives exactly a fresh fit on the rewritten rows") {
    val seen = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    val prop = Prop.forAllNoShrink(cases) { c =>
      val rewritten = c.train.zip(c.column).map { case (r, v) => r.updated(c.f, v) }
      val refit = new NaiveBayes().fit(c.train, c.y).withFeature(c.f, c.column)
      val fresh = new NaiveBayes().fit(rewritten, c.y)
      // also the map-of-tuples model it replaced, for the same arithmetic
      val ref = new ReferenceNaiveBayes().fit(rewritten, c.y)
      val labels = fresh.classes :+ "unknown"
      def outputs(predict: Array[String] => (String, Double), scoreOf: (Array[String], String) => Double,
                  accuracy: Double) =
        (c.valX.toSeq.map(predict), for (r <- c.valX.toSeq; l <- labels) yield scoreOf(r, l), accuracy)
      val want = outputs(fresh.predictWithScore, fresh.scoreOf, fresh.accuracy(c.valX, c.valY))
      assert(refit.classes == fresh.classes && ref.classes == fresh.classes)
      assert(outputs(refit.predictWithScore, refit.scoreOf, refit.accuracy(c.valX, c.valY)) == want)
      assert(outputs(ref.predictWithScore, ref.scoreOf, ref.accuracy(c.valX, c.valY)) == want)

      if (c.valX.exists(_(c.f) == "z")) seen("unseen value") += 1
      if (c.valX.exists { r =>
        val s = fresh.classes.map(fresh.scoreOf(r, _)).sorted.reverse
        s.size > 1 && s(0) == s(1)
      }) seen("tied scores") += 1
      if (fresh.classes.size == 1) seen("one label") += 1
      if (c.valX.isEmpty) seen("empty validation") += 1
      true
    }
    val res = SC.check(SC.Parameters.default.withMinSuccessfulTests(300)
      .withInitialSeed(Seed(20261019L)).withWorkers(1), prop)
    assert(res.passed, res.status.toString)
    for (k <- Seq("unseen value", "tied scores", "one label", "empty validation"))
      assert(seen(k) > 0, s"no case with $k")
  }
}

object NaiveBayesSpec {
  /** A training set, feature `f`'s new column, and a validation set. */
  private final case class Case(train: Array[Array[String]], y: Array[String], f: Int,
                                column: Array[String], valX: Array[Array[String]], valY: Array[String])
}
