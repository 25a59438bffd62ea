package perfbench

import java.sql.{Connection, DriverManager}
import org.apache.spark.sql.DataFrame
import org.duckdb.DuckDBConnection
import repro.core.Cells.Tid

/** Cell counts of one repair, recounted outside Spark. */
final case class Recount(oec: Long, dec: Long, iec: Long, changed: Long)

/** Independent recounts on DuckDB (in-process, in memory). Relations are
  * collected from Spark once and compared column by column in SQL, so the
  * counts share no code with `repro.core.Metrics` or `repro.core.Cells`.
  */
final class Duck extends AutoCloseable {
  private val conn: Connection = {
    Class.forName("org.duckdb.DuckDBDriver")
    DriverManager.getConnection("jdbc:duckdb:")
  }

  private def q(name: String): String = "\"" + name.replace("\"", "\"\"") + "\""

  private def long(sql: String): Long = {
    val rs = conn.createStatement.executeQuery(sql)
    try { rs.next(); rs.getLong(1) } finally rs.close()
  }

  /** Copies a `__tid` + string-attribute relation into table `name`. */
  def load(name: String, df: DataFrame, attrs: Seq[String]): Unit = {
    val st = conn.createStatement
    st.execute(s"DROP TABLE IF EXISTS ${q(name)}")
    st.execute(s"CREATE TABLE ${q(name)} (${q(Tid)} BIGINT, ${attrs.map(a => s"${q(a)} VARCHAR").mkString(", ")})")
    st.close()
    val rows = df.select(Tid, attrs: _*).collect()
    val app = conn.asInstanceOf[DuckDBConnection].createAppender(DuckDBConnection.DEFAULT_SCHEMA, name)
    try rows.foreach { r =>
      app.beginRow()
      app.append(r.getLong(0))
      attrs.indices.foreach(i => app.append(r.getString(i + 1)))
      app.endRow()
    } finally app.close()
  }

  /** Copies flagged cells `(__tid, attr)` into table `name`. */
  def loadCells(name: String, df: DataFrame): Unit = {
    val st = conn.createStatement
    st.execute(s"DROP TABLE IF EXISTS ${q(name)}")
    st.execute(s"CREATE TABLE ${q(name)} (${q(Tid)} BIGINT, attr VARCHAR)")
    st.close()
    val rows = df.select(Tid, "attr").collect()
    val app = conn.asInstanceOf[DuckDBConnection].createAppender(DuckDBConnection.DEFAULT_SCHEMA, name)
    try rows.foreach { r => app.beginRow(); app.append(r.getLong(0)); app.append(r.getString(1)); app.endRow() }
    finally app.close()
  }

  private def sumOver(attrs: Seq[String], cond: String => String): String =
    attrs.map(a => s"CASE WHEN ${cond(q(a))} THEN 1 ELSE 0 END").mkString(" + ")

  /** Cells where `dirty` and `clean` differ. */
  def oec(dirty: String, clean: String, attrs: Seq[String]): Long =
    long(s"SELECT COALESCE(SUM(${sumOver(attrs, a => s"d.$a <> c.$a")}), 0) " +
      s"FROM ${q(dirty)} d JOIN ${q(clean)} c USING (${q(Tid)})")

  /** OEC, DEC, IEC and changed cells of `repaired`, by the paper's Section 4.1. */
  def recount(dirty: String, repaired: String, clean: String, attrs: Seq[String]): Recount = {
    val from = s"FROM ${q(dirty)} d JOIN ${q(repaired)} r USING (${q(Tid)}) JOIN ${q(clean)} c USING (${q(Tid)})"
    def count(cond: String => String): Long =
      long(s"SELECT COALESCE(SUM(${sumOver(attrs, cond)}), 0) $from")
    Recount(
      oec = count(a => s"d.$a <> c.$a"),
      dec = count(a => s"d.$a <> c.$a AND r.$a = c.$a"),
      iec = count(a => s"d.$a = c.$a AND r.$a <> c.$a"),
      changed = count(a => s"r.$a <> d.$a"))
  }

  /** True when both tables hold the same set of tuple ids, each once. */
  def sameTuples(a: String, b: String): Boolean =
    long(s"SELECT COUNT(*) FROM ${q(a)}") == long(s"SELECT COUNT(*) FROM ${q(b)}") &&
      long(s"SELECT COUNT(DISTINCT ${q(Tid)}) FROM ${q(b)}") == long(s"SELECT COUNT(*) FROM ${q(b)}") &&
      long(s"SELECT COUNT(*) FROM ${q(a)} x FULL OUTER JOIN ${q(b)} y USING (${q(Tid)}) " +
        s"WHERE x.${q(Tid)} IS NULL OR y.${q(Tid)} IS NULL") == 0

  /** Cells changed from `dirty` to `repaired` that `flagged` does not hold. */
  def changedUnflagged(dirty: String, repaired: String, flagged: String, attrs: Seq[String]): Long =
    attrs.map { a =>
      long(s"SELECT COUNT(*) FROM ${q(dirty)} d JOIN ${q(repaired)} r USING (${q(Tid)}) " +
        s"WHERE r.${q(a)} IS DISTINCT FROM d.${q(a)} AND NOT EXISTS (SELECT 1 FROM ${q(flagged)} f " +
        s"WHERE f.${q(Tid)} = d.${q(Tid)} AND f.attr = '${a.replace("'", "''")}')")
    }.sum

  override def close(): Unit = conn.close()
}
