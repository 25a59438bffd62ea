package repro.core

import org.apache.spark.sql.DataFrame
import org.scalacheck.{Gen, Prop, Test => SC}
import org.scalacheck.rng.Seed
import repro.{ReproSpec, TestUtil}
import repro.algos.{BigDansing, Holistic, Horizon, MLNClean, SparkCommon, Unified}

/** [[RuleIndex]] against the DataFrame references [[SparkCommon]] and
  * [[SparkViolations]] on random relations, and the five ported
  * algorithms against the reference proposals written back first
  * proposal first, in rule order.
  */
class RuleIndexSpec extends ReproSpec {
  import Cells.Cell

  private type Fix = (Long, String, String)

  // "Ａ" (U+FF21) sorts after "𝒜" (U+1D49C) in UTF-16 but before it in
  // code-point order; "" and "N/A" are missing-value tokens.
  private val attrs = Seq("k1", "k2", "v", "w", "x", "y")
  private val rules: Seq[Rule] = Seq(
    FD(Seq("k1"), "v"),
    FD(Seq("k1", "k2"), "v"), // multi-attribute LHS, same RHS: conflicting proposals
    DC("w_v", Seq(Pred("w", "=", PredOperand.Attr("w")), Pred("v", "!=", PredOperand.Attr("v")))),
    FD(Seq("k2"), "w"),
    DC("order", Seq(
      Pred("k2", "=", PredOperand.Attr("k2")),
      Pred("x", ">", PredOperand.Attr("x"), numeric = true),
      Pred("y", "<", PredOperand.Attr("y"), numeric = true))),
    DC("cross", Seq(Pred("v", "=", PredOperand.Attr("w")), Pred("k1", "<", PredOperand.Attr("k1")))),
  )
  private val fds = Rule.asFds(rules)
  private val dcs = Rule.pureDcs(rules)

  private val relation: Gen[Seq[Seq[String]]] = for {
    n    <- Gen.choose(4, 30)
    rows <- Gen.listOfN(n, for {
      k1 <- Gen.oneOf("a", "b", "c")
      k2 <- Gen.oneOf("p", "q")
      v  <- Gen.oneOf("x", "Ａ", "𝒜", "", "N/A")
      w  <- Gen.oneOf("x", "Ａ", "𝒜", "")
      x  <- Gen.oneOf("1", "2", "3", "2x")
      y  <- Gen.oneOf("1", "2", "3", "")
    } yield Seq(k1, k2, v, w, x, y))
  } yield rows

  private def fixes(df: DataFrame): Seq[Fix] =
    df.collect().toSeq.map(r => (r.getLong(0), r.getString(1), r.getString(2)))

  private def same(a: Tabular, b: Tabular): Boolean =
    a.tids.toSeq == b.tids.toSeq && a.rows.map(_.toSeq).toSeq == b.rows.map(_.toSeq).toSeq

  /** Per LHS key: (winner, winCnt, grpSize, nDistinct, nAtMax). */
  private def winners(df: DataFrame, fd: FD, tieLexicMin: Boolean): Map[String, (String, Long, Long, Long, Long)] =
    SparkCommon.fdWinners(df, fd, tieLexicMin).collect().map(r =>
      r.getString(0) -> (r.getString(1), r.getLong(2), r.getLong(3), r.getLong(4), r.getLong(5))).toMap

  private def check(rows: Seq[Seq[String]]): Unit = {
    val df = TestUtil.mkDf(spark, attrs)(rows: _*).cache()
    try {
      val table = Tabular.collect(df, attrs)
      val idx = new RuleIndex(table, rules)
      val at = rows.map(_.mkString("|")).mkString("; ")

      // FD groups and proposals, both tie directions
      val proposals = (for (fd <- fds; dir <- Seq(true, false)) yield {
        val want = winners(df, fd, dir)
        val got = idx.groups(fd).map { case (k, g) =>
          k -> (g.winner(dir), g.top.toLong, g.size.toLong, g.nDistinct.toLong, g.nAtMax.toLong)
        }
        assert(got === want, s"${fd.id} tieLexicMin=$dir groups in $at")
        val ref = fixes(SparkCommon.fdMajorityRepairs(df, fd, dir))
        assert(idx.majorityFixes(fd, dir).toSet === ref.toSet, s"${fd.id} tieLexicMin=$dir fixes in $at")
        (fd, dir) -> ref
      }).toMap

      // DC pairs and order repairs, and the violating cells of all rules
      val dcRef = dcs.map { dc =>
        val pairs = SparkViolations.dcViolatingPairs(df, dc).collect()
          .map(r => (r.getLong(0), r.getLong(1))).toSet
        assert(RuleIndex.violatingPairs(table, dc).map { case (i, k) => (table.tids(i), table.tids(k)) }
          .toSet === pairs, s"${dc.id} pairs in $at")
        val ref = fixes(SparkCommon.dcOrderRepairs(df, dc))
        assert(idx.dcOrderFixes(dc).toSet === ref.toSet, s"${dc.id} fixes in $at")
        ref
      }.flatten
      val cells: Set[Cell] = Cells.cellSet(SparkViolations.violatingCells(df, rules))
      assert(idx.violatingCells === cells, s"violating cells in $at")

      // each port equals the reference proposals patched in rule order
      val in = RepairInput(spark, table, rules)
      def patchedBy(t: Tabular, proposals: DataFrame => Seq[Fix]): Tabular =
        t.patched(proposals(Cells.publish(spark, t)))

      assert(same(BigDansing.repair(in).table,
        table.patched(fds.flatMap(fd => proposals((fd, false))) ++ dcRef)), s"Bigdansing in $at")

      val round1 = fds.flatMap(fd => proposals((fd, true))) ++ dcRef
      val holistic = if (round1.isEmpty) table else patchedBy(table.patched(round1), d =>
        fds.flatMap(fd => fixes(SparkCommon.fdMajorityRepairs(d, fd))) ++
          dcs.flatMap(dc => fixes(SparkCommon.dcOrderRepairs(d, dc))))
      assert(same(Holistic.repair(in).table, holistic), s"Holistic in $at")

      assert(same(MLNClean.repair(in).table, table.patched(fds.flatMap(fd =>
        fixes(SparkCommon.fdMajorityRepairs(df, fd, minSupport = 3L, minConfidence = 0.8))))),
        s"MLNClean in $at")

      val horizon = fds.filter(_.lhs.size == 1).foldLeft(table) { (t, fd) =>
        patchedBy(t, d => fixes(SparkCommon.fdMajorityRepairs(d, fd, minSupport = 2L, skipTies = true)))
      }
      assert(same(Horizon.repair(in).table, horizon), s"Horizon in $at")

      val unified = fds.flatMap { fd =>
        val dev = winners(df, fd, tieLexicMin = true).values.collect {
          case (_, winCnt, size, nDistinct, _) if nDistinct > 1 => size - winCnt
        }.sum
        // Unified's rule-repair cost at n tuples: 8 + 0.08 n
        if (dev <= 8.0 + 0.08 * rows.size) fixes(SparkCommon.fdMajorityRepairs(df, fd, minSupport = 2L))
        else Nil
      }
      assert(same(Unified.repair(in).table, table.patched(unified)), s"Unified in $at")
    } finally df.unpersist()
  }

  test("the rule index and the ported algorithms equal the DataFrame references on random relations") {
    val prop = Prop.forAllNoShrink(relation) { rows => check(rows); true }
    val res = SC.check(SC.Parameters.default.withMinSuccessfulTests(20)
      .withInitialSeed(Seed(20241101L)).withWorkers(1), prop)
    assert(res.passed, res.status.toString)
  }
}
