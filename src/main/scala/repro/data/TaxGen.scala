package repro.data

import repro.core._

/** Synthetic stand-in for the BART Tax dataset (Table 5: 200 000 tuples,
  * 15 attrs, 4% errors, types T + FI + VAD).
  *
  * Used for the Table 6 scalability study: nested subsets ("The larger
  * datasets encompass the entirety of the smaller ones") are obtained by
  * generating prefixes — `cleanRows(n)` is a prefix of `cleanRows(m)` for
  * n < m at the same seed.
  *
  * Rules follow BART's tax schema: zip->city/state, area_code->state, and
  * the progressive-rate denial constraint
  * `not(t1.state = t2.state and t1.salary > t2.salary and t1.rate < t2.rate)`,
  * which exercises the order-predicate (quadratic) DC path.
  */
object TaxGen extends DataGen {
  override val name = "Tax"
  override val defaultRows = 200000

  override val attrs: Seq[String] = Seq(
    "fname", "lname", "gender", "area_code", "phone", "city", "state",
    "zip", "marital_status", "has_child", "salary", "rate",
    "single_exemp", "married_exemp", "child_exemp")

  override val numericAttrs: Set[String] =
    Set("salary", "rate", "single_exemp", "married_exemp", "child_exemp")

  override val rules: Seq[Rule] = Seq(
    FD(Seq("zip"), "city"),
    FD(Seq("zip"), "state"),
    FD(Seq("area_code"), "state"),
    FD(Seq("has_child"), "child_exemp"),
    FD(Seq("rate"), "single_exemp"),
    DC("progressive_rate", Seq(
      Pred("state", "=", PredOperand.Attr("state")),
      Pred("salary", ">", PredOperand.Attr("salary"), numeric = true),
      Pred("rate", "<", PredOperand.Attr("rate"), numeric = true))),
  )

  override val nominalErrorRate = 0.04
  override val errorTypes: Seq[String] = Seq("T", "FI", "VAD")
  override val classTarget = "marital_status"

  override def defaultSpec(seed: Long): ErrorGen.ErrorSpec = ErrorGen.ErrorSpec(
    nominalErrorRate,
    Seq(ErrorGen.Typo -> 1.0, ErrorGen.Format -> 1.0, ErrorGen.InnerSwap -> 1.0),
    seed)

  /** Nationwide progressive schedule — monotone in salary, so the DC holds
    * on clean data within every state.
    */
  private def rateOf(salary: Int): Int =
    if (salary < 20000) 2
    else if (salary < 50000) 5
    else if (salary < 90000) 8
    else 10

  override def cleanRows(n: Int, seed: Long): Array[Array[String]] = {
    val nZips = math.max(50, n / 40)
    val nCities = math.max(10, nZips / 4)
    Array.tabulate(n) { i =>
      // splitmix-style per-row hash keeps prefixes stable across sizes
      var h = i.toLong * 0x9E3779B97F4A7C15L + seed
      h ^= h >>> 33; h *= 0xFF51AFD7ED558CCDL; h ^= h >>> 33
      def pick(mod: Int, shift: Int): Int = (((h >>> shift) & 0xFFFFFFL) % mod).toInt

      val zipIdx  = pick(nZips, 0)
      val cityIdx = zipIdx % nCities
      val state   = StateNames(cityIdx % StateNames.size)
      val areaIdx = cityIdx % StateNames.size * 3 + pick(3, 8)
      val salary  = 10000 + pick(120, 16) * 1000
      val rate    = rateOf(salary)
      val marital = if (pick(2, 24) == 0) "S" else "M"
      val child   = if (pick(3, 28) == 0) "Y" else "N"
      Array(
        FirstNames(pick(FirstNames.size, 4)),
        LastNames(pick(LastNames.size, 12)),
        if (pick(2, 20) == 0) "F" else "M",
        code("", 200 + areaIdx, 3),
        s"555-${code("", pick(10000, 32), 4)}",
        cityName(cityIdx),
        state,
        code("", 10000 + zipIdx, 5),
        marital,
        child,
        salary.toString,
        rate.toString,
        (rate * 100).toString,
        (rate * 150).toString,
        if (child == "Y") "1000" else "0",
      )
    }
  }
}
