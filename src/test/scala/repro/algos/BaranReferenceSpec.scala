package repro.algos

import org.scalacheck.{Gen, Prop, Test => SC}
import org.scalacheck.rng.Seed
import repro.ReproSpec
import repro.core._
import repro.data.{DataGen, Datasets, TaxGen}

/** [[Baran]]'s per-attribute domain ranking against [[ReferenceBaran]]:
  * the same repaired table and the same flagged cells on random relations
  * with tied domain frequencies, and on the benchmark datasets with Raha's
  * detections.
  */
class BaranReferenceSpec extends ReproSpec {
  import BaranReferenceSpec._

  private def outcome(res: RepairResult): (Seq[(Long, Seq[String])], Option[Set[Cells.Cell]]) =
    (res.table.tids.toSeq.zip(res.table.rows.map(_.toSeq)), res.flagged)

  test("Baran equals the reference on random relations with tied domain frequencies") {
    val seen = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    val prop = Prop.forAllNoShrink(cases) { c =>
      val attrs = (0 until c.rows.head.size).map(j => s"a$j")
      val table = Tabular(c.rows.indices.map(_.toLong).toArray, c.rows.map(_.toArray).toArray, attrs)
      val labeled = (for (t <- c.labeled; (a, j) <- attrs.zipWithIndex)
        yield (t.toLong, a) -> c.clean.getOrElse((t, j), c.rows(t)(j))).toMap
      val rules = if (attrs.size > 1) Seq(FD(Seq("a0"), "a1")) else Nil
      val in = RepairInput(spark, table, rules, labeled = labeled,
        flagged = c.flagged.map(_.map { case (t, j) => (t.toLong, attrs(j)) }))
      val want = outcome(ReferenceBaran.repair(in))
      assert(outcome(Baran.repair(in)) == want, s"$c")
      val repaired = want._1 != table.tids.toSeq.zip(table.rows.map(_.toSeq))
      if (repaired) seen("repaired") += 1
      // one column: no vicinity, so only the value and domain models propose
      if (repaired && attrs.size == 1) seen("one column repaired") += 1
      if (c.flagged.isEmpty) seen("rule-flagged") += 1
      if (c.clean.nonEmpty) seen("labeled corrections") += 1
      // two values share the top frequency of a column
      if (attrs.indices.exists { j =>
        val counts = c.rows.groupBy(_(j)).values.map(_.size).toSeq.sorted.reverse
        counts.size > 1 && counts(0) == counts(1)
      }) seen("tied domain") += 1
      true
    }
    val res = SC.check(SC.Parameters.default.withMinSuccessfulTests(400)
      .withInitialSeed(Seed(20261021L)).withWorkers(1), prop)
    assert(res.passed, res.status.toString)
    for (k <- Seq("repaired", "one column repaired", "rule-flagged", "labeled corrections", "tied domain"))
      assert(seen(k) > 0, s"no case $k")
  }

  // Fixed before any result was seen: the four Table 4 datasets at their
  // native sizes at three seeds, and Tax at 5000 tuples at seed 7.
  private val benchmark: Seq[(DataGen, Option[Int], Long)] =
    (for (gen <- Datasets.realWorld; seed <- Seq(7L, 11L, 701L)) yield (gen, None, seed)) :+
      ((TaxGen, Some(5000), 7L))

  for ((gen, size, seed) <- benchmark) {
    val label = s"${gen.name}${size.fold("")(n => s"-$n")}"
    test(s"Baran equals the reference on $label at seed $seed") {
      val gd = size.fold(gen.generate(spark, seed))(n => gen.generate(spark, n, gen.defaultSpec(seed), seed))
      val in = Harness.inputFor(gd)
      assert(outcome(Baran.repair(in)) === outcome(ReferenceBaran.repair(in)))
    }
  }
}

object BaranReferenceSpec {

  /** Rows, the flagged cells as (row, column) (None: Baran flags rule
    * violations itself), the labeled rows and their clean values where
    * they differ from the row.
    */
  final case class Case(rows: Seq[Seq[String]], flagged: Option[Set[(Int, Int)]],
                        labeled: Seq[Int], clean: Map[(Int, Int), String])

  // Few rows over a small domain make tied frequencies common; "a"/"A",
  // " a"/"a" and "a_b"/"a b" are related by the value model's
  // transformations, and the fixes draw from all of them.
  private val alphabet = Seq("a", "A", "b", "B", " a", "a_b", "a b", "")

  val cases: Gen[Case] = for {
    width   <- Gen.choose(1, 3)
    n       <- Gen.choose(4, 16)
    domain  <- Gen.choose(2, 4)
    rows    <- Gen.listOfN(n, Gen.listOfN(width, Gen.oneOf(alphabet.take(domain))))
    cell     = Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, width - 1))
    nFlag   <- Gen.choose(0, n * width / 2)
    flagged <- Gen.option(Gen.listOfN(nFlag, cell).map(_.toSet))
    labeled <- Gen.someOf(0 until n).map(_.toSeq.sorted)
    // clean values mostly from the relation's domain, so that the domain
    // model can win the weight fit and its ties decide repairs
    fixes   <- Gen.listOfN(labeled.size, Gen.zip(Gen.choose(0, width - 1),
                 Gen.frequency(3 -> Gen.oneOf(alphabet.take(domain)), 1 -> Gen.oneOf(alphabet))))
  } yield Case(rows, flagged, labeled,
    labeled.zip(fixes).collect { case (t, (j, v)) if rows(t)(j) != v => (t, j) -> v }.toMap)
}
