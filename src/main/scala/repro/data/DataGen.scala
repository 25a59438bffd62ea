package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.Random
import repro.core.{Cells, ErrorGen, Rule, Tabular}

/** A generated benchmark dataset: the dirty rows on the driver, the error
  * set, rules and metadata, mirroring one row of the paper's Table 5. The
  * `clean` and `dirty` relations are views of [[table]], built on first
  * read.
  */
final case class GeneratedDataset(
    spark: SparkSession,
    name: String,
    numericAttrs: Set[String],
    rules: Seq[Rule],
    /** Nominal error rate of the default dirty version (Table 5). */
    nominalErrorRate: Double,
    /** Error-type labels of the default dirty version (Table 5). */
    errorTypes: Seq[String],
    /** Label column for downstream/model-driven experiments. */
    classTarget: String,
    /** Clean values of the labeled tuples, keyed by (tid, attr). */
    labeled: Map[(Long, String), String],
    /** The dirty rows. */
    table: Tabular,
    /** The error set E: `(tid, attr) -> clean value` wherever dirty and
      * clean differ, so OEC = |E|.
      */
    errors: Map[Cells.Cell, String],
) {
  def attrs: Seq[String] = table.attrs

  /** Tuple ids of the labeled tuples (Hyper-parameter Settings). */
  def labeledTids: Seq[Long] = labeled.keys.map(_._1).toSeq.distinct.sorted

  /** The observed relation. */
  lazy val dirty: DataFrame = Cells.publish(spark, table)

  /** The ground truth: E patched onto the dirty rows. */
  lazy val clean: DataFrame =
    Cells.publish(spark, table.patched(errors.toSeq.map { case ((tid, a), v) => (tid, a, v) }))

  /** Measured error rate |E| / (tuples × attrs) (Table 5). */
  def errorRate: Double = {
    val cells = table.tids.length.toLong * attrs.size
    if (cells == 0) 0.0 else errors.size.toDouble / cells
  }

  /** Nothing to release: the views are local relations, never cached. */
  def unpersist(): Unit = ()
}

/** Base for driver-side deterministic dataset generators.
  *
  * Generators build clean rows in memory (the paper's datasets are
  * 1 k – 200 k tuples), inject errors via [[ErrorGen]], and keep the dirty
  * rows as a [[Tabular]] together with the error set E.
  */
trait DataGen {
  /** Dataset display name (Table 5). */
  def name: String
  /** Attribute names, in schema order. */
  def attrs: Seq[String]
  /** Attributes holding numeric content (as strings). */
  def numericAttrs: Set[String]
  /** Rules that hold on the clean data. */
  def rules: Seq[Rule]
  /** Table 5 nominal error rate. */
  def nominalErrorRate: Double
  /** Table 5 error-type labels. */
  def errorTypes: Seq[String]
  /** Downstream classification target column. */
  def classTarget: String
  /** Default error profile reproducing Table 5's rate and types. */
  def defaultSpec(seed: Long): ErrorGen.ErrorSpec

  /** Clean rows (row-major, attrs order), deterministic in `seed`. */
  def cleanRows(n: Int, seed: Long): Array[Array[String]]

  /** Native tuple count (Table 5). */
  def defaultRows: Int

  /** Number of labeled tuples handed to label-hungry algorithms. */
  def nLabeled: Int = 20

  /** Generate at the native size with the default error profile. */
  def generate(spark: SparkSession, seed: Long = 7): GeneratedDataset =
    generate(spark, defaultRows, defaultSpec(seed), seed)

  /** Generate `n` tuples under an explicit error profile. */
  def generate(spark: SparkSession, n: Int, spec: ErrorGen.ErrorSpec,
               seed: Long): GeneratedDataset = {
    val clean = cleanRows(n, seed)
    val dirty = ErrorGen.inject(clean, attrs, numericAttrs, spec)
    val rnd = new Random(seed * 31 + 17)
    val tids = rnd.shuffle((0 until n).toList).take(math.min(nLabeled, n)).map(_.toLong).sorted
    val labeledMap = (for {
      tid <- tids
      (a, j) <- attrs.zipWithIndex
    } yield (tid, a) -> clean(tid.toInt)(j)).toMap
    val table = Tabular(Array.tabulate(n)(_.toLong), dirty, attrs)
    GeneratedDataset(spark, name, numericAttrs, rules, nominalErrorRate, errorTypes,
      classTarget, labeledMap, table, table.diff(table.copy(rows = clean)))
  }

  // ----- shared vocabulary helpers -----

  protected val StateNames: Vector[String] = Vector(
    "Alabama", "Alaska", "Arizona", "Arkansas", "California", "Colorado",
    "Connecticut", "Delaware", "Florida", "Georgia", "Hawaii", "Idaho",
    "Illinois", "Indiana", "Iowa", "Kansas", "Kentucky", "Louisiana",
    "Maine", "Maryland", "Massachusetts", "Michigan", "Minnesota",
    "Mississippi", "Missouri", "Montana", "Nebraska", "Nevada",
    "New Hampshire", "New Jersey", "New Mexico", "New York",
    "North Carolina", "North Dakota", "Ohio", "Oklahoma", "Oregon",
    "Pennsylvania", "Rhode Island", "South Carolina", "South Dakota",
    "Tennessee", "Texas", "Utah", "Vermont", "Virginia", "Washington",
    "West Virginia", "Wisconsin", "Wyoming")

  protected val FirstNames: Vector[String] = Vector(
    "James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael",
    "Linda", "David", "Elizabeth", "William", "Barbara", "Richard", "Susan",
    "Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen", "Anna",
    "Mark", "Paula", "Steven", "Laura", "Kevin", "Nancy", "Brian", "Lisa",
    "Edward", "Betty", "Ronald", "Margaret", "Anthony", "Sandra")

  protected val LastNames: Vector[String] = Vector(
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
    "Davis", "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez",
    "Wilson", "Anderson", "Thomas", "Taylor", "Moore", "Jackson", "Martin",
    "Lee", "Perez", "Thompson", "White", "Harris", "Sanchez", "Clark",
    "Ramirez", "Lewis", "Robinson", "Walker", "Young", "Allen", "King")

  protected val CityStems: Vector[String] = Vector(
    "Spring", "River", "Oak", "Maple", "Cedar", "Pine", "Lake", "Hill",
    "Green", "Fair", "Clear", "Stone", "Bridge", "North", "South", "East",
    "West", "Center", "Union", "Liberty", "Franklin", "Madison", "Clinton",
    "Georgetown", "Salem", "Ash", "Birch", "Elm", "Grand", "Silver")

  protected val CitySuffixes: Vector[String] =
    Vector("field", "town", "ville", "burg", "port", "wood", "dale", "ford")

  /** Deterministic synthetic city name for index `i`. */
  protected def cityName(i: Int): String =
    CityStems(i % CityStems.size) + CitySuffixes((i / CityStems.size) % CitySuffixes.size) +
      (if (i >= CityStems.size * CitySuffixes.size) s" ${i / (CityStems.size * CitySuffixes.size)}" else "")

  /** Zero-padded numeric code. */
  protected def code(prefix: String, i: Int, width: Int): String =
    prefix + i.toString.reverse.padTo(width, '0').reverse
}
