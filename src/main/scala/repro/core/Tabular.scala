package repro.core

import org.apache.spark.sql.{DataFrame, functions => F}

/** Driver-side snapshot of a relation, ordered by tid. Datasets are
  * main-memory scale (the paper's Section 7 note), so the cell layer and
  * the driver-side algorithms work on this copy; the generators build it
  * once per dataset, from the rows they already hold.
  */
final case class Tabular(tids: Array[Long], rows: Array[Array[String]],
                         attrs: Seq[String]) {
  val attrIdx: Map[String, Int] = attrs.zipWithIndex.toMap
  lazy val tidIdx: Map[Long, Int] = tids.zipWithIndex.toMap
  def value(tid: Long, attr: String): String = rows(tidIdx(tid))(attrIdx(attr))

  /** Composite key of row `i` over `cols` (an FD's LHS, a DC's equality
    * attributes), joined with [[Tabular.Sep]] so that ("ab", "c") and
    * ("a", "bc") stay apart.
    */
  def key(i: Int, cols: Seq[String]): String =
    cols.map(a => rows(i)(attrIdx(a))).mkString(Tabular.Sep)

  /** Row indexes grouped by their [[key]] over `cols`. */
  def groupBy(cols: Seq[String]): Map[String, IndexedSeq[Int]] =
    rows.indices.groupBy(key(_, cols))

  /** Per attribute `j`, the row indexes holding each value: `valueRows()(j)(v)`.
    * Built anew on every call, so the table keeps nothing between runs.
    */
  def valueRows(): Array[Map[String, IndexedSeq[Int]]] =
    Array.tabulate(attrs.size)(j => rows.indices.groupBy(rows(_)(j)))

  /** Cells where `after` differs from this table: `(tid, attr) -> after's
    * value`. Tuples present on one side only are skipped.
    */
  def diff(after: Tabular): Map[Cells.Cell, String] = {
    val out = Map.newBuilder[Cells.Cell, String]
    for (k <- after.tids.indices; i <- tidIdx.get(after.tids(k)); (a, j) <- attrs.zipWithIndex) {
      val v = after.rows(k)(after.attrIdx(a))
      if (v != rows(i)(j)) out += (tids(i), a) -> v
    }
    out.result()
  }

  /** This table with `fixes` `(tid, attr, value)` applied. The first
    * proposal for a cell, in the order of `fixes`, wins; later ones for
    * the same cell are dropped. Fixes on unknown tuples are ignored.
    */
  def patched(fixes: Seq[(Long, String, String)]): Tabular = {
    val out = rows.clone()
    val seen = scala.collection.mutable.Set.empty[Cells.Cell]
    for ((tid, a, v) <- fixes; i <- tidIdx.get(tid) if seen.add((tid, a))) {
      if (out(i) eq rows(i)) out(i) = rows(i).clone()
      out(i)(attrIdx(a)) = v
    }
    Tabular(tids, out, attrs)
  }
}

object Tabular {

  /** Separator for composite keys. */
  val Sep = "\u0001"

  /** Missing-value tokens: never a repair candidate, since real candidates
    * come from the active domain and "repairing" toward NULL has unbounded
    * cost in every cost model.
    */
  val MvTokens: Seq[String] = Seq("", "N/A", "UNKNOWN", "999", "null")

  /** Collect a relation to the driver. */
  def collect(df: DataFrame, attrs: Seq[String]): Tabular = {
    val rows = df.select(F.col(Cells.Tid) +: attrs.map(F.col): _*)
      .collect()
      .sortBy(_.getLong(0))
    Tabular(
      rows.map(_.getLong(0)),
      rows.map(r => Array.tabulate(attrs.size)(j => r.getString(j + 1))),
      attrs)
  }
}
