package repro.detect

import org.apache.spark.sql.DataFrame
import org.scalacheck.{Gen, Prop, Test => SC}
import org.scalacheck.rng.Seed
import repro.{ReproSpec, TestUtil}
import repro.core._
import repro.data.{DataGen, Datasets, TaxGen}

/** The driver detector [[Raha]] against the DataFrame reference
  * [[SparkRaha]]: the same `(tid, attr, detector)` flags from every
  * detector, and the same final flagged cells.
  */
class RahaReferenceSpec extends ReproSpec {
  import Cells.Cell

  import RahaReferenceSpec.{Flag, driverFlags}

  private def sparkFlags(df: DataFrame, attrs: Seq[String], rules: Seq[Rule]): Set[Flag] =
    SparkRaha.detectorFlags(df, attrs, rules).collect()
      .map(r => (r.getLong(0), r.getString(1), r.getString(2))).toSet

  private def sparkCells(df: DataFrame, attrs: Seq[String], rules: Seq[Rule],
                         labeled: Map[Cell, String]): Set[Cell] = {
    val det = SparkRaha.detect(df, attrs, rules, labeled)
    try Cells.cellSet(det) finally det.unpersist()
  }

  /** Differences between two flag sets, for a readable failure. */
  private def delta[A](driver: Set[A], reference: Set[A]): String =
    s"driver only: ${(driver -- reference).take(5)}; reference only: ${(reference -- driver).take(5)}"

  private def assertSame(df: DataFrame, table: Tabular, rules: Seq[Rule],
                         labeled: Map[Cell, String], at: String): Unit = {
    val (d, r) = (driverFlags(table, rules), sparkFlags(df, table.attrs, rules))
    assert(d === r, s"$at, detector flags: ${delta(d, r)}")
    val (dc, rc) = (Raha.flag(table, rules, labeled), sparkCells(df, table.attrs, rules, labeled))
    assert(dc === rc, s"$at, flagged cells: ${delta(dc, rc)}")
  }

  // Native sizes, except Tax: its native 200k tuples are out of reach of the
  // reference's self-join, and 2000 tuples exercise the order-predicate DC.
  private val cases: Seq[(DataGen, Option[Int])] =
    Datasets.realWorld.map(_ -> None) :+ (TaxGen -> Some(2000))

  for ((gen, size) <- cases; seed <- Seq(7L, 11L, 308L)) {
    test(s"driver detection equals the reference on ${gen.name}${size.fold("")(n => s"-$n")} at seed $seed") {
      val gd = size.fold(gen.generate(spark, seed))(n => gen.generate(spark, n, gen.defaultSpec(seed), seed))
      assertSame(gd.dirty, gd.table, gd.rules, gd.labeled, s"${gd.name} seed $seed")
    }
  }

  // Random small relations: tied FD groups whose winners differ between
  // UTF-16 and code-point order, missing-value tokens, a near-unique
  // column, and numeric columns with typos under an order-predicate DC.
  private val attrs = Seq("k", "v", "m", "u", "s", "x", "y")
  private val rules: Seq[Rule] = Seq(
    FD(Seq("k"), "v"),
    FD(Seq("k", "s"), "m"),
    DC("fd_like", Seq(Pred("s", "=", PredOperand.Attr("s")), Pred("k", "!=", PredOperand.Attr("k")))),
    DC("order", Seq(
      Pred("s", "=", PredOperand.Attr("s")),
      Pred("x", ">", PredOperand.Attr("x"), numeric = true),
      Pred("y", "<", PredOperand.Attr("y"), numeric = true))),
    DC("text", Seq(Pred("u", "<", PredOperand.Attr("u")), Pred("m", "=", PredOperand.Const("ok")))),
  )
  private val numbers = Seq("100", "200", "150.5", "1e2", "2OO", " 300", "-0", "0", "NaN",
    "Infinity", "inf", "12x", "", "1d", "0x10")

  private val relation: Gen[(Seq[Seq[String]], Map[Cell, String])] = for {
    n    <- Gen.choose(6, 30)
    rows <- Gen.listOfN(n, for {
      k <- Gen.oneOf("a", "b", "c")
      v <- Gen.oneOf("x", "Ａ", "𝒜", "y")
      m <- Gen.oneOf("", "N/A", "NULL", "?", "na", "ok", "ok", "ok")
      u <- Gen.oneOf(Gen.choose(0, 99).map(i => s"id$i"), Gen.oneOf("ID 7", "id-3", "7"))
      s <- Gen.oneOf("s1", "s2")
      x <- Gen.oneOf(numbers)
      y <- Gen.oneOf(numbers)
    } yield Seq(k, v, m, u, s, x, y))
    labeledTids <- Gen.someOf(0 until n)
    labels <- Gen.listOfN(labeledTids.size * attrs.size, Gen.oneOf(true, true, false))
  } yield {
    val cells = for (t <- labeledTids.sorted; (a, j) <- attrs.zipWithIndex) yield (t, a, j)
    val labeled = cells.zip(labels).map { case ((t, a, j), same) =>
      (t.toLong, a) -> (if (same) rows(t)(j) else "clean")
    }.toMap
    (rows, labeled)
  }

  test("driver detection equals the reference on random relations") {
    val prop = Prop.forAllNoShrink(relation) { case (rows, labeled) =>
      val df = TestUtil.mkDf(spark, attrs)(rows: _*).cache()
      try assertSame(df, Tabular.collect(df, attrs), rules, labeled, s"${rows.size} rows")
      finally df.unpersist()
      true
    }
    val res = SC.check(SC.Parameters.default.withMinSuccessfulTests(25)
      .withInitialSeed(Seed(20241019L)).withWorkers(1), prop)
    assert(res.passed, res.status.toString)
  }
}

object RahaReferenceSpec {
  type Flag = (Long, String, String)

  /** Every driver detector's flags as `(tid, attr, detector)`. */
  def driverFlags(table: Tabular, rules: Seq[Rule]): Set[Flag] =
    (for (((a, d), rows) <- Raha.detectorFlags(table, rules).toSeq; i <- rows.toSeq)
      yield (table.tids(i), a, d)).toSet
}
