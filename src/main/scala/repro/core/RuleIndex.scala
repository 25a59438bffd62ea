package repro.core

import scala.collection.mutable

/** One LHS group of an FD: its row indexes and the count of each RHS
  * value among them.
  */
final case class FdGroup(rows: IndexedSeq[Int], counts: Map[String, Int]) {
  def size: Int = rows.size
  def nDistinct: Int = counts.size
  /** The largest RHS count. */
  val top: Int = counts.valuesIterator.max
  /** The RHS values counted [[top]] times. */
  val tied: Iterable[String] = counts.collect { case (v, c) if c == top => v }
  def nAtMax: Int = tied.size

  /** The majority RHS value: count first, then missing-value tokens last,
    * then code-point order, ascending when `tieLexicMin` and descending
    * otherwise. This is the order the DataFrame versions sorted by.
    */
  def winner(tieLexicMin: Boolean): String = {
    val real = tied.filterNot(Tabular.MvTokens.contains)
    val pool = if (real.isEmpty) tied else real
    if (tieLexicMin) pool.min(RuleIndex.Utf8Order) else pool.max(RuleIndex.Utf8Order)
  }
}

/** The rule checks of one table, on the driver: per FD its LHS groups,
  * per DC that is not an FD in disguise how many violating ordered pairs
  * each row is part of.
  * Each is computed on first use and kept for the life of the index, so
  * build one index per table version (a round or pass that patches the
  * table builds a new one).
  */
final class RuleIndex(table: Tabular, rules: Seq[Rule]) {

  /** The rules as FDs, FD-shaped DCs included. */
  val fds: Seq[FD] = Rule.asFds(rules)
  /** The DCs that are not FDs in disguise. */
  val dcs: Seq[DC] = Rule.pureDcs(rules)

  private val groupsOf = mutable.HashMap.empty[FD, Map[String, FdGroup]]
  private val degreesOf = mutable.HashMap.empty[DC, Array[Int]]

  /** The LHS groups of `fd` (any FD over the table's attributes), by their
    * [[Tabular.key]].
    */
  def groups(fd: FD): Map[String, FdGroup] = groupsOf.getOrElseUpdate(fd, {
    val rhs = table.attrIdx(fd.rhs)
    table.groupBy(fd.lhs).map { case (k, rows) =>
      k -> FdGroup(rows, rows.groupMapReduce(table.rows(_)(rhs))(_ => 1)(_ + _))
    }
  })

  /** Per row, the number of ordered pairs violating `dc` it is part of,
    * on either side.
    */
  def degrees(dc: DC): Array[Int] = degreesOf.getOrElseUpdate(dc, {
    val deg = new Array[Int](table.rows.length)
    RuleIndex.violatingPairs(table, dc).foreach { case (i, k) => deg(i) += 1; deg(k) += 1 }
    deg
  })

  /** Majority-vote repairs of `fd`: in every LHS group with more than one
    * RHS value, the RHS of every tuple not holding the [[FdGroup.winner]]
    * becomes the winner. `minSupport` and `minConfidence` gate the groups
    * on the winner's count and its share of the group (MLNClean's
    * reliability, Horizon's pattern support); `skipTies` drops groups
    * whose top count is shared.
    */
  def majorityFixes(fd: FD, tieLexicMin: Boolean = true, minSupport: Int = 1,
                    minConfidence: Double = 0.0,
                    skipTies: Boolean = false): Seq[(Long, String, String)] = {
    val rhs = table.attrIdx(fd.rhs)
    groups(fd).valuesIterator.filter { g =>
      g.nDistinct > 1 && g.top >= minSupport && g.top >= g.size * minConfidence &&
        !(skipTies && g.nAtMax > 1)
    }.flatMap { g =>
      val w = g.winner(tieLexicMin)
      g.rows.collect { case i if table.rows(i)(rhs) != w => (table.tids(i), fd.rhs, w) }
    }.toSeq
  }

  /** Repairs for an order-predicate DC (e.g. Tax's progressive rate). The
    * last attribute compared with itself by an order predicate is the
    * dependent one; it follows the implied FD from the DC's same-attribute
    * equality attributes plus the other order attributes. Tuples in more
    * violating pairs than the average violating tuple are the culprits
    * (the vertex-cover spirit), and each culprit takes its implied-FD
    * group's winner when that winner is held at least twice. DCs without
    * such an equality and two such order predicates yield nothing.
    */
  def dcOrderFixes(dc: DC): Seq[(Long, String, String)] = {
    val eqAttrs = dc.equalityPreds.collect {
      case Pred(a, "=", PredOperand.Attr(b), _) if a == b => a
    }
    val sameAttrOrder = dc.preds.collect {
      case Pred(a, op, PredOperand.Attr(b), _) if a == b && RuleIndex.OrderOps(op) => a
    }
    if (eqAttrs.isEmpty || sameAttrOrder.size < 2) return Nil
    val fd = FD(eqAttrs ++ sameAttrOrder.dropRight(1), sameAttrOrder.last)
    val deg = degrees(dc)
    val hit = deg.filter(_ > 0)
    if (hit.isEmpty) return Nil
    val avg = hit.map(_.toLong).sum.toDouble / hit.length
    val (rhs, byKey) = (table.attrIdx(fd.rhs), groups(fd))
    for {
      i <- table.rows.indices if deg(i) > avg
      g = byKey(table.key(i, fd.lhs)) if g.top >= 2
      w = g.winner(tieLexicMin = true) if table.rows(i)(rhs) != w
    } yield (table.tids(i), fd.rhs, w)
  }

  /** Cells in a violation of any rule: for an FD, every LHS and RHS cell
    * of a group with more than one RHS value; for another DC, every cell
    * of its attributes in a tuple of a violating pair.
    */
  def violatingCells: Set[Cells.Cell] = {
    val fdCells = for {
      fd <- fds.iterator; g <- groups(fd).valuesIterator if g.nDistinct > 1
      i <- g.rows; a <- fd.attrs
    } yield (table.tids(i), a)
    val dcCells = for {
      dc <- dcs.iterator; deg = degrees(dc); i <- deg.indices if deg(i) > 0; a <- dc.attrs
    } yield (table.tids(i), a)
    (fdCells ++ dcCells).toSet
  }
}

object RuleIndex {

  private val OrderOps = Set("<", ">", "<=", ">=")

  /** Strings in binary UTF-8 order (the order of code points), the order
    * Spark sorts strings in; `String.compareTo` differs on surrogate pairs.
    */
  val Utf8Order: Ordering[String] = (x: String, y: String) => {
    var i = 0
    while (i < x.length && i < y.length && x.charAt(i) == y.charAt(i)) i += 1
    if (i == x.length || i == y.length) x.length compare y.length
    else x.codePointAt(i) compare y.codePointAt(i)
  }

  /** Ordered pairs `(t1, t2)` of distinct rows of `table` violating `dc`.
    * Equality predicates between tuples group the candidates; the others
    * filter every ordered pair of distinct tuples inside a group. A numeric
    * operand is read as Spark's `try_cast(... AS DOUBLE)`, so a value that
    * does not parse makes its predicate false, as SQL's NULL does.
    */
  def violatingPairs(table: Tabular, dc: DC): Iterator[(Int, Int)] = {
    def strings(attr: String): Array[String] = { val j = table.attrIdx(attr); table.rows.map(_(j)) }
    def doubles(attr: String): Array[java.lang.Double] = strings(attr).map(toDouble)
    // whether a predicate holds for t1 = row i, t2 = row k
    val filters: Array[(Int, Int) => Boolean] = dc.filterPreds.map { p =>
      val test = opTest(p.op)
      (p.numeric, p.right) match {
        case (true, PredOperand.Attr(b)) =>
          val ((l, lOk), (r, rOk)) = (unboxed(doubles(p.left)), unboxed(doubles(b)))
          (i: Int, k: Int) => lOk(i) && rOk(k) && test(compareDoubles(l(i), r(k)))
        case (true, PredOperand.Const(v)) =>
          val ((l, lOk), c) = (unboxed(doubles(p.left)), toDouble(v))
          (i: Int, _: Int) => c != null && lOk(i) && test(compareDoubles(l(i), c))
        case (false, PredOperand.Attr(b)) =>
          val (l, r) = (strings(p.left), strings(b))
          (i: Int, k: Int) => test(Utf8Order.compare(l(i), r(k)))
        case (false, PredOperand.Const(v)) =>
          val l = strings(p.left)
          (i: Int, _: Int) => test(Utf8Order.compare(l(i), v))
      }
    }.toArray
    // join keys as SQL equality sees them: no NULL part, -0.0 = 0.0, NaN = NaN
    def keys(attrs: Seq[(String, Boolean)]): Array[Option[Seq[Any]]] = {
      val cols: Seq[Int => Any] = attrs.map {
        case (a, true) =>
          val xs = doubles(a)
          i => if (xs(i) == null) null else java.lang.Double.doubleToLongBits(xs(i) + 0.0)
        case (a, false) =>
          val xs = strings(a)
          xs(_)
      }
      Array.tabulate(table.rows.length) { i =>
        val k = cols.map(_(i))
        if (k.contains(null)) None else Some(k)
      }
    }
    val eqs = dc.equalityPreds.collect { case Pred(l, _, PredOperand.Attr(r), numeric) => (l, r, numeric) }
    val (lefts, rights) = (keys(eqs.map(e => (e._1, e._3))), keys(eqs.map(e => (e._2, e._3))))
    val byKey: Map[Seq[Any], Array[Int]] = rights.indices.flatMap(k => rights(k).map(_ -> k))
      .groupMap(_._1)(_._2).view.mapValues(_.toArray).toMap
    for {
      i <- lefts.indices.iterator; key <- lefts(i).iterator; group <- byKey.get(key).iterator
      k <- group.iterator if k != i && filters.forall(_(i, k))
    } yield (i, k)
  }

  /** Doubles with a flag per value: false where the cast failed. */
  private def unboxed(xs: Array[java.lang.Double]): (Array[Double], Array[Boolean]) =
    (xs.map(x => if (x == null) 0.0 else x.doubleValue), xs.map(_ != null))

  /** SQL's order on doubles: -0.0 = 0.0, NaN = NaN and above every number. */
  private def compareDoubles(x: Double, y: Double): Int =
    if (x == y) 0 else java.lang.Double.compare(x, y)

  /** Spark's string-to-double cast, or null where `try_cast` gives NULL. */
  private def toDouble(s: String): java.lang.Double =
    try java.lang.Double.valueOf(s)
    catch {
      case _: NumberFormatException => s.trim.toLowerCase(java.util.Locale.ROOT) match {
        case "inf" | "+inf" | "infinity" | "+infinity" => Double.PositiveInfinity
        case "-inf" | "-infinity"                      => Double.NegativeInfinity
        case "nan"                                     => Double.NaN
        case _                                         => null
      }
    }

  private def opTest(op: String): Int => Boolean = op match {
    case "="  => _ == 0
    case "!=" => _ != 0
    case "<"  => _ < 0
    case ">"  => _ > 0
    case "<=" => _ <= 0
    case ">=" => _ >= 0
  }
}
