package repro.detect

import org.apache.spark.sql.DataFrame
import repro.{ReproSpec, SparkJobs, TestUtil}
import repro.core._
import repro.data.HospitalGen

class RahaSpec extends ReproSpec {
  private val attrs = Seq("code", "city", "qty")
  private def base = TestUtil.mkDf(spark, attrs)(
    Seq("A-1", "Springfield", "10"),
    Seq("A-2", "Springfield", "11"),
    Seq("A-3", "Springfield", "12"),
    Seq("A-4", "Rivertown", "13"),
    Seq("A-5", "Rivertown", "14"),
    Seq("", "Rivertown", "fifteen"),   // MV in code, format break in qty
    Seq("A-7", "N/A", "16"),           // implicit MV in city
    Seq("A-8", "Rivertown", "17"),
  )

  private def flags(df: DataFrame, rules: Seq[Rule]) =
    RahaReferenceSpec.driverFlags(Tabular.collect(df, attrs), rules)

  test("detectorFlags finds explicit and implicit missing values") {
    val f = flags(base, Nil)
    assert(f.contains((5L, "code", "MV")))
    assert(f.contains((6L, "city", "MV")))
  }

  test("detectorFlags finds format outliers against the dominant signature") {
    val f = flags(base, Nil)
    assert(f.contains((5L, "qty", "FORMAT"))) // "fifteen" vs digit signature
  }

  test("detectorFlags includes rule violations") {
    val fd = FD(Seq("city"), "qty") // deliberately violated everywhere
    assert(flags(base, Seq(fd)).count(_._3 == "RULE") > 0)
  }

  test("unlabeled detection falls back to MV + RULE") {
    val det = Raha.detect(base, attrs, Nil, Map.empty).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    assert(det.contains((5L, "code")))
    assert(det.contains((6L, "city")))
    assert(!det.exists(_._2 == "qty") || !det.contains((0L, "qty")))
  }

  test("labels select useful detectors per column") {
    // label tuples 5 and 6 with their clean values: errors at (5,code),(5,qty),(6,city)
    val labeled = Map(
      (5L, "code") -> "A-6", (5L, "city") -> "Rivertown", (5L, "qty") -> "15",
      (6L, "code") -> "A-7", (6L, "city") -> "Springfield", (6L, "qty") -> "16")
    val det = Raha.detect(base, attrs, Nil, labeled).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    assert(det.contains((5L, "code")))
    assert(det.contains((5L, "qty")))
  }

  test("detection on hospital-scale data achieves solid cell F1") {
    val gd = HospitalGen.generate(spark, 400, HospitalGen.defaultSpec(3), 3)
    val det = Raha.detect(gd.dirty, gd.attrs, gd.rules, gd.labeled)
    val ev = Metrics.evaluate(gd.dirty, gd.dirty, gd.clean, gd.attrs, Some(det))
    info(f"raha hospital-400 ED precision=${ev.edPrecision}%.3f recall=${ev.edRecall}%.3f f1=${ev.edF1}%.3f")
    assert(ev.edF1 > 0.3, s"ED F1 too low: ${ev.edF1}")
  }

  test("detection output has no duplicate cells") {
    val det = Raha.detect(base, attrs, Nil, Map.empty)
    assert(det.count() === det.distinct().count())
  }

  test("clean column yields no freq-based false positives under labels") {
    // qty is near-unique; with labels showing qty errors exist only as
    // format breaks, the FREQ detector (everything unique) must not win
    val labeled = Map(
      (0L, "code") -> "A-1", (0L, "city") -> "Springfield", (0L, "qty") -> "10",
      (1L, "code") -> "A-2", (1L, "city") -> "Springfield", (1L, "qty") -> "11")
    val det = Raha.detect(base, attrs, Nil, labeled).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    assert(!det.contains((0L, "qty")))
    assert(!det.contains((1L, "qty")))
  }

  test("driver detection runs no Spark job; detect over a relation runs one, its collect") {
    val df = base.cache()
    df.count()
    val table = Tabular.collect(df, attrs)
    val fd = FD(Seq("city"), "qty")
    val (cells, flagJobs) = SparkJobs.count(spark)(Raha.flag(table, Seq(fd), Map.empty))
    assert(flagJobs === 0)
    val (det, detectJobs) = SparkJobs.count(spark)(
      Raha.detect(df, attrs, Seq(fd), Map.empty).collect())
    assert(detectJobs === 1)
    assert(det.map(r => (r.getLong(0), r.getString(1))).toSet === cells)
    df.unpersist()
  }
}
