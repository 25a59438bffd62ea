package repro.algos

import repro.ReproSpec
import repro.core._
import repro.data.{DataGen, Datasets, TaxGen}

/** The five algorithms ported onto [[RuleIndex]] against their DataFrame
  * references, and the index's violating cells (HoloClean's detection
  * signal, Baran's and Scare's fallback) against [[SparkViolations]]: the
  * same repaired table and the same cells on the Table 4 datasets, and on
  * Tax, where the order-predicate DC path runs.
  */
class RuleAlgorithmsReferenceSpec extends ReproSpec {

  private val ported: Seq[(RepairAlgorithm, RepairAlgorithm)] = Seq(
    Holistic -> SparkHolistic, BigDansing -> SparkBigDansing, Horizon -> SparkHorizon,
    MLNClean -> SparkMLNClean, Unified -> SparkUnified)

  // Native sizes at three seeds; Tax at 5000 tuples and one seed, since
  // the references' DC self-join is the slowest part of the suite.
  private val cases: Seq[(DataGen, Option[Int], Long)] =
    (for (gen <- Datasets.realWorld; seed <- Seq(7L, 11L, 701L)) yield (gen, None, seed)) :+
      ((TaxGen, Some(5000), 7L))

  for ((gen, size, seed) <- cases) {
    val label = s"${gen.name}${size.fold("")(n => s"-$n")}"
    test(s"ported rule algorithms and violating cells equal the references on $label at seed $seed") {
      val gd = size.fold(gen.generate(spark, seed))(n => gen.generate(spark, n, gen.defaultSpec(seed), seed))
      val in = RepairInput(spark, gd.table, gd.rules, gd.numericAttrs)
      val mismatches = ported.flatMap { case (algo, reference) =>
        val (got, want) = (algo.repair(in), reference.repair(in))
        val differ = got.table.tids.toSeq != want.table.tids.toSeq ||
          got.table.rows.map(_.toSeq).toSeq != want.table.rows.map(_.toSeq).toSeq ||
          got.flagged != want.flagged
        if (differ) Some(s"${algo.name}: cells that differ ${want.table.diff(got.table).take(5)}")
        else None
      }
      assert(mismatches.isEmpty, mismatches.mkString("; "))
      val cells = new RuleIndex(gd.table, gd.rules).violatingCells
      val want = Cells.cellSet(SparkViolations.violatingCells(gd.dirty, gd.rules))
      assert(cells === want, s"index only: ${(cells -- want).take(5)}; reference only: ${(want -- cells).take(5)}")
    }
  }
}
