package repro.bench

import repro.ReproSpec
import repro.algos.Algorithms
import repro.core.Harness

/** Reproduces Table 6: runtime scaling over nested Tax subsets.
  *
  * Paper reference (10k..50k rows, 24 h cap, 512 GB server):
  *   MLNClean fastest throughout (66s..395s); Nadeef / Horizon / Unified /
  *   Boostclean scale roughly linearly and finish; Bigdansing, Holistic,
  *   Baran, Scare time out from 20k-30k on; Daisy and Relative never
  *   finish; HoloClean OOMs above 10k (n/a*).
  *
  * Scale mapping: our single-node budget (default 60 s) stands in for the
  * paper's 24 h over sizes 5k..40k (the paper's 10k..50k); what must
  * transfer is the relative ordering and which columns degrade to n/a
  * (timeout) or n/a* (HoloClean's domain statistics exceeding memory).
  */
class Table6Bench extends ReproSpec {

  test("Table 6: runtime scaling on Tax subsets") {
    val budgetMs = sys.env.getOrElse("REPRO_T6_BUDGET_S", "60").toLong * 1000
    val sizes = sys.env.get("REPRO_T6_SIZES")
      .map(_.split(",").map(_.trim.toInt).toSeq)
      .getOrElse(Seq(5000, 10000, 20000, 30000, 40000))
    val outcomes = Harness.table6(spark, Algorithms.all, sizes, budgetMs,
      holoCleanMaxCells = sys.env.getOrElse("REPRO_T6_HC_CELLS", "2000000000").toLong)
    println("==== Table 6 (measured) ====")
    println(Harness.renderTable6(outcomes))

    // a crashed run is a defect of the reproduction, not a table cell
    val errs = outcomes.filter(_.status == "err").map(o => s"${o.algo} on ${o.dataset}")
    assert(errs.isEmpty, s"runs ended in err: ${errs.mkString(", ")}")

    // Relative never completes at benchmark scale
    assert(outcomes.filter(_.algo == "Relative").forall(o =>
      o.status == "n/a" || o.status == "n/a*"))
    // MLNClean completes everywhere and is among the fastest finishers
    val mln = outcomes.filter(_.algo == "MLNClean")
    assert(mln.forall(_.status == "ok"))
    val lastSize = s"Tax-${sizes.last}"
    val finishers = outcomes.filter(o => o.dataset == lastSize && o.status == "ok")
    val mlnLast = mln.find(_.dataset == lastSize).get
    val faster = finishers.count(_.repairSeconds < mlnLast.repairSeconds)
    assert(faster <= finishers.size / 2,
      s"MLNClean should be in the faster half at $lastSize")
  }
}
