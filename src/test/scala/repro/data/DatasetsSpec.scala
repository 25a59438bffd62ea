package repro.data

import org.apache.spark.sql.{functions => F}
import repro.{Oracle, ReproSpec}
import repro.core._

/** Generator invariants: Table 5 characteristics hold, rules hold on the
  * clean versions, error rates land near nominal, subsets nest.
  */
class DatasetsSpec extends ReproSpec {

  private def violationsOnClean(gd: GeneratedDataset): Long =
    Violations.violatingCells(gd.clean, gd.rules).count()

  private def checkGen(gen: DataGen, rows: Int): Unit = {
    val gd = gen.generate(spark, rows, gen.defaultSpec(11), 11)
    try {
      assert(gd.clean.count() === rows)
      assert(gd.dirty.count() === rows)
      assert(gd.attrs.size === gen.attrs.size)
      assert(violationsOnClean(gd) === 0,
        s"${gen.name}: clean data violates its own rules")
      val rate = gd.errorRate
      assert(rate > gen.nominalErrorRate * 0.6 && rate < gen.nominalErrorRate * 1.4,
        s"${gen.name}: realized rate $rate vs nominal ${gen.nominalErrorRate}")
      assert(gd.labeledTids.size === math.min(20, rows))
      assert(gd.labeled.size === gd.labeledTids.size * gd.attrs.size)
    } finally gd.unpersist()
  }

  test("Hospital: Table 5 invariants at reduced scale")(checkGen(HospitalGen, 400))
  test("Flights: Table 5 invariants at reduced scale")(checkGen(FlightsGen, 400))
  test("Beers: Table 5 invariants at reduced scale")(checkGen(BeersGen, 400))
  test("Rayyan: Table 5 invariants at reduced scale")(checkGen(RayyanGen, 400))
  test("Tax: Table 5 invariants at reduced scale")(checkGen(TaxGen, 2000))

  test("the stored table and error set match the generated relations") {
    for (gen <- Datasets.all; seed <- Seq(11L, 12L)) {
      val gd = gen.generate(spark, if (gen == TaxGen) 2000 else 400, gen.defaultSpec(seed), seed)
      try {
        val errors = Cells.changedCells(gd.dirty, gd.clean, gd.attrs).collect()
          .map(r => (r.getLong(0), r.getString(1)) -> r.getString(3)).toMap
        assert(gd.errors === errors, s"${gen.name} at seed $seed")
        val table = Tabular.collect(gd.dirty, gd.attrs)
        assert(gd.table.tids.toSeq === table.tids.toSeq)
        assert(gd.table.rows.map(_.toSeq).toSeq === table.rows.map(_.toSeq).toSeq,
          s"${gen.name} at seed $seed")
      } finally gd.unpersist()
    }
  }

  test("Table 5 native sizes and arities") {
    assert(HospitalGen.defaultRows === 1000 && HospitalGen.attrs.size === 20)
    assert(FlightsGen.defaultRows === 2376 && FlightsGen.attrs.size === 7)
    assert(BeersGen.defaultRows === 2410 && BeersGen.attrs.size === 11)
    assert(RayyanGen.defaultRows === 1000 && RayyanGen.attrs.size === 11)
    assert(TaxGen.defaultRows === 200000 && TaxGen.attrs.size === 15)
  }

  test("Table 5 nominal error rates") {
    assert(HospitalGen.nominalErrorRate === 0.03)
    assert(FlightsGen.nominalErrorRate === 0.30)
    assert(BeersGen.nominalErrorRate === 0.16)
    assert(RayyanGen.nominalErrorRate === 0.09)
    assert(TaxGen.nominalErrorRate === 0.04)
  }

  test("generation is deterministic in the seed") {
    val a = HospitalGen.cleanRows(50, 3)
    val b = HospitalGen.cleanRows(50, 3)
    assert(a.map(_.toSeq).toSeq === b.map(_.toSeq).toSeq)
  }

  test("Tax subsets nest by prefix") {
    val small = TaxGen.cleanRows(100, 7)
    val large = TaxGen.cleanRows(300, 7)
    assert(small.map(_.toSeq).toSeq === large.take(100).map(_.toSeq).toSeq)
  }

  test("Hospital clean satisfies zip->city per DuckDB") {
    val gd = HospitalGen.generate(spark, 300, HospitalGen.defaultSpec(5), 5)
    try {
      val got = gd.clean.groupBy("zip_code")
        .agg(F.countDistinct("city").as("n"))
        .agg(F.max("n").as("maxDistinct"))
      Oracle.assertEquivalent(got,
        "SELECT max(n) AS maxDistinct FROM (SELECT zip_code, count(DISTINCT city) AS n " +
          "FROM t GROUP BY zip_code)",
        "t" -> gd.clean)
      val maxDistinct = got.collect()(0).getLong(0)
      assert(maxDistinct === 1)
    } finally gd.unpersist()
  }

  test("Tax clean satisfies the progressive-rate DC") {
    val gd = TaxGen.generate(spark, 1500, TaxGen.defaultSpec(5), 5)
    try {
      val dc = gd.rules.collectFirst { case d: DC => d }.get
      assert(Violations.dcViolatingPairs(gd.clean, dc).count() === 0)
    } finally gd.unpersist()
  }

  test("Tax dirty violates the progressive-rate DC") {
    val gd = TaxGen.generate(spark, 1500, TaxGen.defaultSpec(5), 5)
    try {
      val dc = gd.rules.collectFirst { case d: DC => d }.get
      assert(Violations.dcViolatingPairs(gd.dirty, dc).count() > 0)
    } finally gd.unpersist()
  }

  test("Hospital redundancy: providers repeat ~10x") {
    val gd = HospitalGen.generate(spark, 500, HospitalGen.defaultSpec(5), 5)
    try {
      val avg = gd.clean.groupBy("provider_number").count()
        .agg(F.avg("count")).collect()(0).getDouble(0)
      assert(avg > 8 && avg < 12, s"provider redundancy $avg")
    } finally gd.unpersist()
  }

  test("Flights low redundancy: flights repeat ~2.2x") {
    val gd = FlightsGen.generate(spark, 500, FlightsGen.defaultSpec(5), 5)
    try {
      val avg = gd.clean.groupBy("flight").count()
        .agg(F.avg("count")).collect()(0).getDouble(0)
      assert(avg > 1.5 && avg < 3.0, s"flight redundancy $avg")
    } finally gd.unpersist()
  }

  test("labeled map matches clean values") {
    val gd = BeersGen.generate(spark, 200, BeersGen.defaultSpec(9), 9)
    try {
      val cleanMap = repro.TestUtil.toMap(gd.clean, gd.attrs)
      gd.labeled.foreach { case ((tid, attr), v) =>
        assert(cleanMap(tid)(gd.attrs.indexOf(attr)) === v)
      }
    } finally gd.unpersist()
  }

  test("facade lookups") {
    assert(Datasets.byName("hospital").name === "Hospital")
    assert(Datasets.byName("TAX").name === "Tax")
    assertThrows[IllegalArgumentException](Datasets.byName("nope"))
    assert(Datasets.realWorld.map(_.name) ===
      Seq("Hospital", "Flights", "Beers", "Rayyan"))
  }

  test("error-type mixes expose the advertised types") {
    // flights default mix must contain MVs and formatting artifacts
    val gd = FlightsGen.generate(spark, 600, FlightsGen.defaultSpec(13), 13)
    try {
      val vals = gd.dirty.collect().flatMap(_.toSeq.drop(1)).map(_.toString)
      assert(vals.contains(""))
      assert(vals.exists(v => v == "N/A" || v == "UNKNOWN" || v == "999" || v == "null"))
    } finally gd.unpersist()
  }

  test("mixed-error variant hits requested rate") {
    val gd = Datasets.withMixedErrors(spark, RayyanGen, 0.3, 21)
    try {
      val r = gd.errorRate
      assert(r > 0.22 && r < 0.38, s"rate $r")
    } finally gd.unpersist()
  }
}
