package repro.core

import org.apache.spark.sql.{Column, DataFrame, functions => F}

/** Rule-violation detection as DataFrame programs.
  *
  * FD violations come from a groupBy on the LHS (groups with more than one
  * distinct RHS value); DC violations from a self-join where equality
  * predicates become join keys and order predicates post-join filters.
  */
object Violations {
  import Cells.Tid

  /** Separator for composite LHS group keys. */
  val Sep = "\u0001"

  /** Composite group-key column for an FD LHS. */
  def groupKey(lhs: Seq[String]): Column =
    F.concat_ws(Sep, lhs.map(F.col): _*)

  /** Per-FD pattern statistics: `(lhsKey, rhsVal, cnt)`. */
  def fdPatternCounts(df: DataFrame, fd: FD): DataFrame =
    df.select(groupKey(fd.lhs).as("lhsKey"), F.col(fd.rhs).as("rhsVal"))
      .groupBy("lhsKey", "rhsVal")
      .agg(F.count(F.lit(1)).as("cnt"))

  /** LHS groups violating `fd`: `(lhsKey, nDistinct, grpSize)`. */
  def fdViolatingGroups(df: DataFrame, fd: FD): DataFrame =
    df.select(groupKey(fd.lhs).as("lhsKey"), F.col(fd.rhs).as("rhsVal"))
      .groupBy("lhsKey")
      .agg(F.countDistinct("rhsVal").as("nDistinct"), F.count(F.lit(1)).as("grpSize"))
      .where(F.col("nDistinct") > 1)

  /** Cells involved in FD violations: `(__tid, attr, rule)` — the RHS cell
    * of every tuple in a violating group plus, when `includeLhs`, its LHS
    * cells (a wrong LHS value is an equally valid culprit).
    */
  def fdViolatingCells(df: DataFrame, fd: FD, includeLhs: Boolean = true): DataFrame = {
    val bad = fdViolatingGroups(df, fd).select("lhsKey")
    val tuples = df
      .select(F.col(Tid), groupKey(fd.lhs).as("lhsKey"))
      .join(bad, "lhsKey")
      .select(Tid)
    val attrs = if (includeLhs) fd.lhs :+ fd.rhs else Seq(fd.rhs)
    tuples.crossJoin(
      df.sparkSession.createDataFrame(attrs.map(Tuple1.apply)).toDF("attr")
    ).select(F.col(Tid), F.col("attr"), F.lit(fd.id).as("rule"))
  }

  private def cmp(l: Column, op: String, r: Column): Column = op match {
    case "="  => l === r
    case "!=" => l =!= r
    case "<"  => l < r
    case ">"  => l > r
    case "<=" => l <= r
    case ">=" => l >= r
  }

  /** Tuple pairs violating `dc`: `(tid1, tid2)` with `tid1 != tid2`.
    *
    * Pairs are enumerated in both orders unless the predicate set is
    * symmetric; callers that need each unordered pair once should filter
    * `tid1 < tid2` (only sound for symmetric DCs such as FD-equivalents).
    */
  def dcViolatingPairs(df: DataFrame, dc: DC): DataFrame = {
    val t1 = df.alias("t1")
    val t2 = df.alias("t2")
    // try_cast: dirty data holds typo'd numerics ("5x000"); under ANSI they
    // must compare as NULL (no violation), not crash the job
    def colOf(alias: String, a: String, numeric: Boolean): Column = {
      if (numeric) F.expr(s"try_cast($alias.$a AS DOUBLE)") else F.col(s"$alias.$a")
    }
    def predCond(p: Pred): Column = {
      val l = colOf("t1", p.left, p.numeric)
      val r = p.right match {
        case PredOperand.Attr(a)  => colOf("t2", a, p.numeric)
        case PredOperand.Const(v) => if (p.numeric) F.expr(s"try_cast('$v' AS DOUBLE)") else F.lit(v)
      }
      cmp(l, p.op, r)
    }
    val joinCond = dc.preds.map(predCond).reduce(_ && _) &&
      (F.col(s"t1.$Tid") =!= F.col(s"t2.$Tid"))
    t1.join(t2, joinCond)
      .select(F.col(s"t1.$Tid").as("tid1"), F.col(s"t2.$Tid").as("tid2"))
  }

  /** Cells involved in DC violations: `(__tid, attr, rule)`. */
  def dcViolatingCells(df: DataFrame, dc: DC): DataFrame = {
    val pairs = dcViolatingPairs(df, dc)
    val tids  = pairs.select(F.col("tid1").as(Tid))
      .union(pairs.select(F.col("tid2").as(Tid)))
      .distinct()
    tids.crossJoin(
      df.sparkSession.createDataFrame(dc.attrs.map(Tuple1.apply)).toDF("attr")
    ).select(F.col(Tid), F.col("attr"), F.lit(dc.id).as("rule"))
  }

  /** Union of violating cells over all rules: `(__tid, attr, rule)`. */
  def violatingCells(df: DataFrame, rules: Seq[Rule], includeLhs: Boolean = true): DataFrame = {
    val frames = rules.map {
      case fd: FD => fdViolatingCells(df, fd, includeLhs)
      case dc: DC =>
        Rule.dcAsFd(dc) match {
          case Some(fd) => fdViolatingCells(df, fd, includeLhs).withColumn("rule", F.lit(dc.id))
          case None     => dcViolatingCells(df, dc)
        }
    }
    if (frames.isEmpty) Cells.noRepairs(df).withColumnRenamed("value", "rule")
    else frames.reduce(_ union _).distinct()
  }
}
