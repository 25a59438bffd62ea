package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.Exchange
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.{ReproSpec, TestUtil}
import repro.data.GeneratedDataset

/** Properties of the cell layer (write-back, scoring, guarding) on random
  * small relations, each checked against a driver-side recount or against
  * the Spark-side path it replaces.
  */
object CellLayerSpec {
  type Cell = (Long, String)

  /** A clean relation, its dirty copy, proposed repairs and flagged cells. */
  final case class Case(attrs: Seq[String], clean: Seq[Seq[String]], dirty: Seq[Seq[String]],
                        repairs: Seq[(Long, String, String)], detections: Seq[Cell])
}

class CellLayerSpec extends ReproSpec {

  import CellLayerSpec._

  private val value = Gen.oneOf("x", "y", "z", "")

  private val genCase: Gen[Case] = for {
    nAttrs <- Gen.choose(1, 3)
    nRows  <- Gen.choose(1, 6)
    attrs   = Seq("a", "b", "c").take(nAttrs)
    clean  <- Gen.listOfN(nRows, Gen.listOfN(nAttrs, value))
    noise  <- Gen.listOfN(nRows, Gen.listOfN(nAttrs,
                Gen.frequency(2 -> Gen.const(None), 1 -> value.map(Option(_)))))
    dirty   = clean.zip(noise).map { case (row, ns) =>
                row.zip(ns).map { case (v, n) => n.getOrElse(v) } }
    cell    = Gen.zip(Gen.choose(0L, nRows - 1L), Gen.oneOf(attrs))
    nRep   <- Gen.choose(0, 8)
    repairs <- Gen.listOfN(nRep, Gen.zip(cell, value).map { case ((t, a), v) => (t, a, v) })
    nDet   <- Gen.choose(0, 8)
    detections <- Gen.listOfN(nDet, cell)
  } yield Case(attrs, clean, dirty, repairs, detections)

  /** Cases sampled deterministically, one seed each. */
  private val cases: Seq[Case] =
    (0 until 25).flatMap(i => genCase.apply(Gen.Parameters.default, Seed(i.toLong)))

  /** Wide rows as a `cell -> value` map. */
  private def cellsOf(attrs: Seq[String], rows: Seq[Seq[String]]): Map[Cell, String] =
    (for ((row, t) <- rows.zipWithIndex; (a, v) <- attrs.zip(row)) yield (t.toLong, a) -> v).toMap

  private def collected(c: Case, df: DataFrame): Map[Cell, String] =
    for ((t, row) <- TestUtil.toMap(df, c.attrs); (a, v) <- c.attrs.zip(row)) yield (t, a) -> v

  private def repairsDf(fixes: Seq[(Long, String, String)]): DataFrame =
    spark.createDataFrame(fixes).toDF(Cells.Tid, "attr", "value")

  private def detectionsDf(cells: Seq[Cell]): DataFrame =
    spark.createDataFrame(cells).toDF(Cells.Tid, "attr")

  /** The case's repairs applied by the Spark-side tid join. */
  private def joinRepaired(c: Case, dirty: DataFrame): DataFrame =
    Cells.applyRepairs(dirty, c.attrs, repairsDf(c.repairs))

  private def ratio(n: Long, d: Long): Double = if (d == 0) 0.0 else n.toDouble / d
  private def f1(p: Double, r: Double): Double = if (p + r == 0) 0.0 else 2 * p * r / (p + r)

  /** The Section 4.1 metrics recounted cell by cell. */
  private def recount(dirty: Map[Cell, String], repaired: Map[Cell, String],
                      clean: Map[Cell, String], detections: Option[Set[Cell]]): RepairEval = {
    val cells = dirty.keys.toSeq
    def n(p: Cell => Boolean): Long = cells.count(p).toLong
    val oec = n(c => dirty(c) != clean(c))
    val dec = n(c => dirty(c) != clean(c) && repaired(c) == clean(c))
    val iec = n(c => dirty(c) == clean(c) && repaired(c) != clean(c))
    val changed = n(c => repaired(c) != dirty(c))
    val det = detections.getOrElse(cells.filter(c => repaired(c) != dirty(c)).toSet)
    val hit = det.count(c => dirty.get(c).exists(_ != clean(c))).toLong
    val (erP, erR) = (ratio(dec, changed), ratio(dec, oec))
    val (edP, edR) = (ratio(hit, det.size.toLong), ratio(hit, oec))
    RepairEval(oec, dec, iec, changed,
      edr = if (oec == 0) 0.0 else (dec - iec).toDouble / oec,
      erPrecision = erP, erRecall = erR, erF1 = f1(erP, erR),
      edPrecision = edP, edRecall = edR, edF1 = f1(edP, edR))
  }

  test("applyRepairs matches a driver-side reference on random relations") {
    for (c <- cases) {
      val dirty = TestUtil.mkDf(spark, c.attrs)(c.dirty: _*)
      val out = collected(c, joinRepaired(c, dirty))
      val proposals = c.repairs.groupBy(r => (r._1, r._2))
        .map { case (k, rs) => k -> rs.map(_._3).toSet }
      val dirtyCells = cellsOf(c.attrs, c.dirty)
      assert(out.keySet === dirtyCells.keySet, c)
      for ((cell, v) <- out)
        assert(proposals.get(cell).fold(v == dirtyCells(cell))(_.contains(v)), s"$cell=$v in $c")
    }
  }

  test("evaluate matches a cell-by-cell recount, with and without detections") {
    for (c <- cases) {
      val dirty = TestUtil.mkDf(spark, c.attrs)(c.dirty: _*)
      val clean = TestUtil.mkDf(spark, c.attrs)(c.clean: _*)
      val repaired = joinRepaired(c, dirty).cache()
      val (d, r, k) = (cellsOf(c.attrs, c.dirty), collected(c, repaired), cellsOf(c.attrs, c.clean))
      assert(Metrics.evaluate(dirty, repaired, clean, c.attrs) === recount(d, r, k, None), c)
      val det = detectionsDf(c.detections)
      assert(Metrics.evaluate(dirty, repaired, clean, c.attrs, Some(det)) ===
        recount(d, r, k, Some(c.detections.toSet)), c)
      repaired.unpersist()
    }
  }

  test("driver write-back equals the tid-join applyRepairs, first proposal winning") {
    for (c <- cases) {
      val dirty = TestUtil.mkDf(spark, c.attrs)(c.dirty: _*)
      val firstWins = c.repairs.distinctBy(r => (r._1, r._2))
      val reference = collected(c, Cells.applyRepairs(dirty, c.attrs, repairsDf(firstWins)))
      val table = Tabular.collect(dirty, c.attrs)
      assert(collected(c, Cells.publish(spark, table.patched(c.repairs))) === reference, c)
    }
  }

  test("harness scoring equals DataFrame evaluate, with and without detections") {
    for (c <- cases; withDet <- Seq(false, true)) {
      val dirty = TestUtil.mkDf(spark, c.attrs)(c.dirty: _*)
      val clean = TestUtil.mkDf(spark, c.attrs)(c.clean: _*)
      val repaired = joinRepaired(c, dirty).cache()
      val det = if (withDet) Some(detectionsDf(c.detections)) else None
      val (d, k) = (cellsOf(c.attrs, c.dirty), cellsOf(c.attrs, c.clean))
      val table = Tabular(c.dirty.indices.map(_.toLong).toArray, c.dirty.map(_.toArray).toArray, c.attrs)
      val gd = GeneratedDataset("random", c.attrs, Set.empty, Nil, clean, dirty, 0.0, Nil,
        c.attrs.last, Nil, Map.empty, table, d.collect { case (cell, v) if v != k(cell) => cell -> k(cell) })
      val fixed = new RepairAlgorithm {
        val name = "Fixed"; val category = "Test"
        def repair(in: RepairInput) = RepairResult(repaired, det)
      }
      val o = Harness.runOne(fixed, gd, budgetMs = 60000,
        precomputedDetections = Some(detectionsDf(Nil)))
      assert(o.status === "ok", c)
      assert(o.eval === Some(Metrics.evaluate(dirty, repaired, clean, c.attrs, det)), c)
      repaired.unpersist()
    }
  }

  test("a published relation is materialized without a shuffle") {
    val c = cases.maxBy(_.dirty.size)
    val table = Tabular.collect(TestUtil.mkDf(spark, c.attrs)(c.dirty: _*), c.attrs)
    val published = Cells.publish(spark, table.patched(c.repairs))
    val counted = published.groupBy().count()
    assert(counted.collect().head.getLong(0) === c.dirty.size)
    object Plans extends AdaptiveSparkPlanHelper
    for (plan <- Seq(published.queryExecution.executedPlan, counted.queryExecution.executedPlan))
      assert(Plans.collect(plan) { case e: Exchange => e }.isEmpty, plan)
  }

  test("guard changes only flagged cells and never raises IEC") {
    for (c <- cases) {
      val dirty = TestUtil.mkDf(spark, c.attrs)(c.dirty: _*)
      val repaired = joinRepaired(c, dirty).cache()
      val guarded = DetectionGuard.guard(dirty, c.attrs, RepairResult(repaired),
        detectionsDf(c.detections))
      val (d, r, k) = (cellsOf(c.attrs, c.dirty), collected(c, repaired), cellsOf(c.attrs, c.clean))
      val g = collected(c, guarded.repaired)
      val flagged = c.detections.toSet
      for (cell <- d.keys)
        assert(g(cell) === (if (flagged(cell)) r(cell) else d(cell)), s"$cell in $c")
      assert(recount(d, g, k, None).iec <= recount(d, r, k, None).iec, c)
      repaired.unpersist()
    }
  }
}
