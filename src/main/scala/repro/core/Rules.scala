package repro.core

/** General rules for data repair (Section 2.1 of the paper).
  *
  * Two rule families cover the benchmark datasets: functional dependencies
  * (`FD`) and denial constraints (`DC`). An FD `X -> A` is sugar for the
  * equality-pattern DC `forall t1,t2: not(t1.X = t2.X and t1.A != t2.A)`;
  * DCs additionally support order predicates (the Tax progressive-rate
  * constraint) and single-tuple constant predicates.
  */
sealed trait Rule {
  /** Stable identifier used to attribute violations to rules. */
  def id: String
  /** Attributes mentioned by the rule. */
  def attrs: Seq[String]
}

/** Functional dependency `lhs -> rhs` over string attributes. */
final case class FD(lhs: Seq[String], rhs: String) extends Rule {
  require(lhs.nonEmpty, "FD needs a non-empty LHS")
  require(!lhs.contains(rhs), s"FD RHS $rhs may not appear in LHS $lhs")
  override def id: String    = s"FD(${lhs.mkString(",")}->$rhs)"
  override def attrs: Seq[String] = lhs :+ rhs
}

/** One predicate of a two-tuple denial constraint.
  *
  * `left` names an attribute of tuple t1; `right` is either an attribute of
  * tuple t2 ([[PredOperand.Attr]]) or a constant ([[PredOperand.Const]]).
  * `numeric` casts both sides to DOUBLE before comparing (order predicates
  * over salary/rate-style columns).
  */
final case class Pred(left: String, op: String, right: PredOperand, numeric: Boolean = false) {
  require(Pred.Ops.contains(op), s"unsupported predicate operator: $op")
}

object Pred {
  val Ops: Set[String] = Set("=", "!=", "<", ">", "<=", ">=")
}

sealed trait PredOperand
object PredOperand {
  /** Attribute of the second tuple t2. */
  final case class Attr(name: String) extends PredOperand
  /** Constant literal. */
  final case class Const(value: String) extends PredOperand
}

/** Denial constraint `forall t1,t2 in I: not(p1 and ... and pm)`. */
final case class DC(name: String, preds: Seq[Pred]) extends Rule {
  require(preds.nonEmpty, "DC needs at least one predicate")
  override def id: String = s"DC($name)"
  override def attrs: Seq[String] = preds.flatMap { p =>
    p.right match {
      case PredOperand.Attr(a) => Seq(p.left, a)
      case PredOperand.Const(_) => Seq(p.left)
    }
  }.distinct

  /** Equality predicates `t1.A = t2.B` — usable as join keys. */
  def equalityPreds: Seq[Pred] = preds.filter(p => p.op == "=" && p.right.isInstanceOf[PredOperand.Attr])

  /** Non-equality two-tuple predicates — applied as post-join filters. */
  def filterPreds: Seq[Pred] = preds.filter(p => !(p.op == "=" && p.right.isInstanceOf[PredOperand.Attr]))
}

object Rule {
  /** An FD expressed as its equivalent DC (Section 2.1). */
  def fdAsDc(fd: FD): DC = DC(
    s"fd:${fd.id}",
    fd.lhs.map(a => Pred(a, "=", PredOperand.Attr(a))) :+ Pred(fd.rhs, "!=", PredOperand.Attr(fd.rhs))
  )

  /** A DC of the shape `X= ... X=, A!=` is an FD in disguise; recover it.
    * Rule-driven algorithms that only speak FDs (Horizon) use this.
    */
  def dcAsFd(dc: DC): Option[FD] = {
    val eqSame  = dc.preds.collect { case Pred(a, "=", PredOperand.Attr(b), _) if a == b => a }
    val neqSame = dc.preds.collect { case Pred(a, "!=", PredOperand.Attr(b), _) if a == b => a }
    if (eqSame.nonEmpty && neqSame.size == 1 && eqSame.size + 1 == dc.preds.size)
      Some(FD(eqSame, neqSame.head))
    else None
  }

  /** All rules of `rules` viewed as FDs where possible. */
  def asFds(rules: Seq[Rule]): Seq[FD] = rules.flatMap {
    case fd: FD => Some(fd)
    case dc: DC => dcAsFd(dc)
  }

  /** The DCs of `rules` that are not FDs in disguise. */
  def pureDcs(rules: Seq[Rule]): Seq[DC] = rules.collect {
    case dc: DC if dcAsFd(dc).isEmpty => dc
  }
}
