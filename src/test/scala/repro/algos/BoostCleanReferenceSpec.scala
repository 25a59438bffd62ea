package repro.algos

import repro.ReproSpec
import repro.core.Harness
import repro.data.Datasets

/** [[BoostClean]], which refits one feature per candidate action, against
  * [[ReferenceBoostClean]], which refits the whole model: the same repaired
  * table and the same flagged cells on the Table 4 datasets.
  */
class BoostCleanReferenceSpec extends ReproSpec {

  for (gen <- Datasets.realWorld; seed <- Seq(7L, 11L, 701L)) {
    test(s"BoostClean equals the reference on ${gen.name} at seed $seed") {
      val gd = gen.generate(spark, seed)
      try {
        val in = Harness.inputFor(gd)
        val (got, ref) = (BoostClean.repair(in), ReferenceBoostClean.repair(in))
        assert(got.table.tids.toSeq === ref.table.tids.toSeq)
        assert(got.table.rows.map(_.toSeq).toSeq === ref.table.rows.map(_.toSeq).toSeq,
          s"cells that differ: ${ref.table.diff(got.table).take(5)}")
        assert(got.flagged === ref.flagged)
      } finally gd.unpersist()
    }
  }
}
