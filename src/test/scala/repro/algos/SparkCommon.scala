package repro.algos

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.expressions.Window
import repro.core._

/** Reference implementation of the FD-majority family's building blocks
  * as DataFrame programs. [[RuleIndex]] computes the same proposals on the
  * driver; tests check it against these, and the `Spark*` algorithms use
  * them as the references of the ported algorithms.
  */
object SparkCommon {
  import Cells.Tid

  /** Per-FD winning pattern per LHS group:
    * `(lhsKey, winner, winCnt, grpSize, nDistinct, nAtMax)`.
    *
    * `tieLexicMin = true` breaks count ties by the lexicographically
    * smallest RHS value (Holistic's deterministic-but-arbitrary pick);
    * `false` by the largest (BigDansing's).
    */
  def fdWinners(df: DataFrame, fd: FD, tieLexicMin: Boolean = true): DataFrame = {
    val pats = SparkViolations.fdPatternCounts(df, fd)
    val ord  = if (tieLexicMin) F.col("rhsVal").asc else F.col("rhsVal").desc
    val mvLast = F.when(F.col("rhsVal").isin(Tabular.MvTokens: _*), 1).otherwise(0)
    val w    = Window.partitionBy("lhsKey").orderBy(F.col("cnt").desc, mvLast.asc, ord)
    val tot  = Window.partitionBy("lhsKey")
    pats
      .withColumn("rk", F.row_number().over(w))
      .withColumn("grpSize", F.sum("cnt").over(tot))
      .withColumn("nDistinct", F.count(F.lit(1)).over(tot))
      .withColumn("maxCnt", F.max("cnt").over(tot))
      .withColumn("nAtMax",
        F.sum(F.when(F.col("cnt") === F.col("maxCnt"), 1L).otherwise(0L)).over(tot))
      .where(F.col("rk") === 1)
      .select(F.col("lhsKey"), F.col("rhsVal").as("winner"),
        F.col("cnt").as("winCnt"), F.col("grpSize"), F.col("nDistinct"),
        F.col("nAtMax"))
  }

  /** Majority-vote FD repairs: in every violating LHS group, rewrite the
    * RHS of non-winning tuples to the winning value. `minSupport` /
    * `minConfidence` gate which groups are trusted (MLNClean's reliability,
    * Horizon's pattern support). Returns `(__tid, attr, value)` repairs.
    */
  def fdMajorityRepairs(df: DataFrame, fd: FD, tieLexicMin: Boolean = true,
                        minSupport: Long = 1L, minConfidence: Double = 0.0,
                        skipTies: Boolean = false): DataFrame = {
    val winners0 = fdWinners(df, fd, tieLexicMin)
      .where(F.col("nDistinct") > 1)
      .where(F.col("winCnt") >= minSupport)
      .where(F.col("winCnt") >= F.col("grpSize") * minConfidence)
    // skipTies: a strict majority — the winner must beat every runner-up
    val winners = if (skipTies) winners0.where(F.col("nAtMax") === 1) else winners0
    df.select(F.col(Tid), SparkViolations.groupKey(fd.lhs).as("lhsKey"),
        F.col(fd.rhs).as("rhsVal"))
      .join(winners, "lhsKey")
      .where(F.col("rhsVal") =!= F.col("winner"))
      .select(F.col(Tid), F.lit(fd.rhs).as("attr"), F.col("winner").as("value"))
  }

  /** Repairs for an order-predicate DC (e.g. Tax's progressive rate):
    * tuples on the "smaller" side of violating pairs get the left
    * order-attribute rewritten to the majority value among block-mates
    * sharing all equality attributes plus the first order attribute's
    * partner — i.e. the implicit `(block, partnerAttr) -> attr` majority.
    * Only DCs with at least one equality and one order predicate are
    * handled; others yield no repairs.
    */
  def dcOrderRepairs(df: DataFrame, dc: DC): DataFrame = {
    val eqAttrs = dc.equalityPreds.collect {
      case Pred(a, "=", PredOperand.Attr(b), _) if a == b => a
    }
    val orderPreds = dc.preds.filter(p => Set("<", ">", "<=", ">=").contains(p.op))
    val sameAttrOrder = orderPreds.collect {
      case Pred(a, _, PredOperand.Attr(b), _) if a == b => a
    }
    if (eqAttrs.isEmpty || sameAttrOrder.size < 2) return SparkCells.noRepairs(df)
    // treat the last order attribute as the dependent one and the others
    // as its context: majority of (eqAttrs ++ context) -> dependent
    val dependent = sameAttrOrder.last
    val context   = sameAttrOrder.dropRight(1)
    val impliedFd = FD(eqAttrs ++ context, dependent)

    val pairs = SparkViolations.dcViolatingPairs(df, dc)
    val badTids = pairs.select(F.col("tid1").as(Tid))
      .union(pairs.select(F.col("tid2").as(Tid)))
      .groupBy(Tid).agg(F.count(F.lit(1)).as("deg"))
      .cache()
    // vertex-cover spirit: only tuples in many violations are culprits
    val avgRow = badTids.agg(F.avg("deg")).collect()(0)
    if (avgRow.isNullAt(0)) { badTids.unpersist(); return SparkCells.noRepairs(df) }
    val culprits = badTids.where(F.col("deg") > avgRow.getDouble(0)).select(Tid)
    val out = fdMajorityRepairsForTids(df, impliedFd, culprits)
    badTids.unpersist()
    out
  }

  /** FD-majority repairs restricted to the given culprit tuples. */
  private def fdMajorityRepairsForTids(df: DataFrame, fd: FD, tids: DataFrame): DataFrame = {
    val winners = fdWinners(df, fd).where(F.col("winCnt") >= 2)
    df.join(tids, Tid)
      .select(F.col(Tid), SparkViolations.groupKey(fd.lhs).as("lhsKey"),
        F.col(fd.rhs).as("rhsVal"))
      .join(winners, "lhsKey")
      .where(F.col("rhsVal") =!= F.col("winner"))
      .select(F.col(Tid), F.lit(fd.rhs).as("attr"), F.col("winner").as("value"))
  }
}
