package repro.algos

import org.scalacheck.{Gen, Prop, Test => SC}
import org.scalacheck.rng.Seed
import repro.ReproSpec
import repro.core._
import repro.data.{DataGen, Datasets, TaxGen}

import scala.util.{Failure, Success, Try}

/** [[Relative]]'s integer-coded search against [[ReferenceRelative]]: the
  * same budget trip, or the same repaired table, on random relations under
  * random node budgets, and the same trip on the benchmark datasets.
  */
class RelativeReferenceSpec extends ReproSpec {
  import RelativeReferenceSpec._

  /** Both trip (with the same message) or both return the same table. */
  private def outcome(algo: RepairInput => RepairResult, in: RepairInput): Either[String, Seq[(Long, Seq[String])]] =
    Try(algo(in)) match {
      case Success(res) => Right(res.table.tids.toSeq.zip(res.table.rows.map(_.toSeq)))
      case Failure(e: BudgetExceeded) => Left(e.getMessage)
      case Failure(e) => throw e
    }

  /** The smallest node budget, up to `cap`, under which `algo` completes. */
  private def nodesToComplete(algo: (RepairInput, Int) => RepairResult, in: RepairInput,
                              cap: Int): Option[Int] = {
    def completes(m: Int) = outcome(algo(_, m), in).isRight
    if (!completes(cap)) None
    else {
      var (lo, hi) = (0, cap) // trips at lo, completes at hi
      while (hi - lo > 1) { val mid = (lo + hi) / 2; if (completes(mid)) hi = mid else lo = mid }
      Some(hi)
    }
  }

  test("Relative equals the reference on random relations and node budgets") {
    val seen = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    val prop = Prop.forAllNoShrink(cases) { c =>
      val attrs = (0 until c.rows.head.size).map(j => s"a$j")
      val table = Tabular(c.rows.indices.map(_.toLong).toArray, c.rows.map(_.toArray).toArray, attrs)
      val in = RepairInput(spark, table, c.fds)
      val at = s"${c.fds.map(_.id)}, rows ${c.rows}"
      def same(maxNodes: Int) = {
        val want = outcome(ReferenceRelative.repair(_, maxNodes), in)
        assert(outcome(Relative.repair(_, maxNodes), in) == want, s"maxNodes $maxNodes, $at")
        want
      }
      same(c.maxNodes) match {
        case Left(_) => seen("tripped") += 1
        case Right(rows) =>
          seen("completed") += 1
          if (rows != table.tids.toSeq.zip(table.rows.map(_.toSeq))) seen("repaired") += 1
      }
      // the same node count: both complete at the smallest budget Relative
      // needs and both trip one node below it
      nodesToComplete(Relative.repair, in, MaxNodes) match {
        case Some(nodes) =>
          assert(same(nodes).isRight && same(nodes - 1).isLeft, s"$nodes nodes, $at")
          seen("node count pinned") += 1
        case None => assert(same(MaxNodes).isLeft, at)
      }
      if (c.fds.exists(_.lhs.size == 2)) seen("two-attribute LHS") += 1
      if (c.rows.exists(_.take(2) == Seq("ab", "c")) && c.rows.exists(_.take(2) == Seq("a", "bc")))
        seen("ab|c and a|bc") += 1
      true
    }
    val res = SC.check(SC.Parameters.default.withMinSuccessfulTests(400)
      .withInitialSeed(Seed(20261020L)).withWorkers(1), prop)
    assert(res.passed, res.status.toString)
    for (k <- Seq("tripped", "completed", "repaired", "node count pinned", "two-attribute LHS",
                  "ab|c and a|bc"))
      assert(seen(k) > 0, s"no case $k")
  }

  // Fixed before any result was seen: the four Table 4 datasets at their
  // native sizes and Tax at 5000 tuples, each at three seeds.
  private val benchmark: Seq[(DataGen, Option[Int], Long)] = for {
    (gen, size) <- Datasets.realWorld.map(_ -> None) :+ (TaxGen -> Some(5000))
    seed <- Seq(7L, 11L, 701L)
  } yield (gen, size, seed)

  for ((gen, size, seed) <- benchmark) {
    val label = s"${gen.name}${size.fold("")(n => s"-$n")}"
    test(s"Relative and the reference both trip the node budget on $label at seed $seed") {
      val gd = size.fold(gen.generate(spark, seed))(n => gen.generate(spark, n, gen.defaultSpec(seed), seed))
      val in = RepairInput(spark, gd.table, gd.rules, gd.numericAttrs)
      val want = outcome(ReferenceRelative.repair, in)
      assert(want.isLeft, s"the reference completed on $label")
      assert(outcome(Relative.repair, in) === want)
    }
  }
}

object RelativeReferenceSpec {

  final case class Case(rows: Seq[Seq[String]], fds: Seq[FD], maxNodes: Int)

  /** The largest node budget a case draws. */
  val MaxNodes = 3000

  // Small alphabets make tied and violated groups common. "ab"/"c" and
  // "a"/"bc" concatenate alike, "Ａ" (U+FF21) and "𝒜" (U+1D49C) order
  // differently by UTF-16 and by code point; no value holds Tabular.Sep,
  // the reference's key separator.
  private val alphabet = Seq("a", "b", "c", "ab", "bc", "", "Ａ", "𝒜")

  private def fd(width: Int): Gen[FD] = for {
    lhsSize <- Gen.choose(1, 2)
    cols    <- Gen.pick(lhsSize + 1, 0 until width)
    order   <- Gen.oneOf(cols.toSeq.permutations.toSeq)
  } yield FD(order.init.map(j => s"a$j"), s"a${order.last}")

  val cases: Gen[Case] = for {
    width    <- Gen.choose(3, 6)
    n        <- Gen.choose(6, 40)
    domain   <- Gen.choose(2, alphabet.size)
    rows     <- Gen.listOfN(n, Gen.listOfN(width, Gen.oneOf(alphabet.take(domain))))
    pairs    <- Gen.oneOf(false, true)
    nFds     <- Gen.choose(1, 3)
    fds      <- Gen.listOfN(nFds, fd(width))
    maxNodes <- Gen.choose(1, MaxNodes)
  } yield {
    // optionally plant the colliding pairs in the first two columns
    val planted = if (!pairs) rows else rows.zipWithIndex.map {
      case (r, 0) => Seq("ab", "c") ++ r.drop(2)
      case (r, 1) => Seq("a", "bc") ++ r.drop(2)
      case (r, _) => r
    }
    Case(planted, fds, maxNodes)
  }
}
