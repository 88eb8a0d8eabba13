package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.core.Direction
import repro.reference.{BruteForce, ReferenceSkyline}
import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** Result fingerprint: row count plus an order-independent 64-bit hash. */
final case class Fingerprint(rows: Long, hash: Long) {
  override def toString: String = f"$rows rows / $hash%016x"
}

object Fingerprint {
  def of(rows: Iterable[Row]): Fingerprint = {
    var n = 0L
    var h = 0L
    rows.foreach { r =>
      val vals = r.toSeq
      h += (MurmurHash3.orderedHash(vals, 0x5ca1ab1e).toLong << 32) ^
        (MurmurHash3.orderedHash(vals, 0x0ddba11).toLong & 0xffffffffL)
      n += 1
    }
    Fingerprint(n, h)
  }
}

/** The expected results, computed by paths that share no code with the
  * skyline operators: the paper's `NOT EXISTS` rewrite run by stock Spark
  * SQL, and `BruteForce` for DISTINCT and small inputs.
  *
  * The plain rewrite compares every pair, which is out of reach at 10^6 rows,
  * so it runs on a candidate set that provably holds the skyline:
  *
  *  1. Rows are grouped by their null bitmap. Rows of one group have nulls
  *     in the same dimensions, so dominance inside a group is ordinary
  *     (transitive) dominance on the group's non-null dimensions.
  *  2. Pivots are picked per group from a seeded sample: the best row
  *     under each of a set of seeded weightings of the normalized
  *     dimensions. A row that a pivot of its group dominates is dropped. A
  *     skyline row is dominated by nothing, so it survives, and so does
  *     every row of each group's own skyline. This filter only removes rows;
  *     a fault in it can make the oracle disagree with the program, never
  *     agree with a wrong result it would otherwise reject.
  *  3. The rewrite (null-aware when asked) runs on the survivors. They hold
  *     the skyline, and any survivor that some input row s dominates is also
  *     dominated by a survivor: s itself, or the row of s's group skyline
  *     that dominates s, which is as good as s on every dimension s shares
  *     with the survivor. Hence the rewrite over the survivors returns
  *     exactly the skyline of the whole input.
  */
object Reference {

  private val Pivots = 128
  private val PivotSample = 0.2

  /** Dimension values of a row as doubles oriented so smaller is better
    * (NaN for null, DIFF values kept as they are), and its null bitmap.
    */
  private final case class Point(row: Row, v: Array[Double], bitmap: Long, norm: Array[Double])

  /** Does `p` dominate `r`? Both come from one null-bitmap group. */
  private def dominates(p: Array[Double], r: Array[Double], diff: Array[Boolean]): Boolean = {
    var strict = false
    var i = 0
    while (i < p.length) {
      val a = p(i); val b = r(i)
      if (!a.isNaN) {
        if (diff(i)) { if (a != b) return false }
        else if (a > b) return false
        else if (a < b) strict = true
      }
      i += 1
    }
    strict
  }

  def skyline(
      spark: SparkSession,
      view: String,
      outputCols: Seq[String],
      dims: Seq[(String, Direction)],
      nullAware: Boolean): Array[Row] = {
    val df = spark.table(view)
    val ranges = df.selectExpr(
      dims.flatMap { case (c, _) => Seq(s"double(min($c))", s"double(max($c))") }: _*).head()
    val idx = dims.map { case (c, _) => df.schema.fieldIndex(c) }.toArray
    val dirs = dims.map(_._2).toArray
    val diff = dirs.map(_ == Direction.Diff)
    val lo = dims.indices.map(i => if (ranges.isNullAt(2 * i)) 0.0 else ranges.getDouble(2 * i)).toArray
    val span = dims.indices.map(i =>
      if (ranges.isNullAt(2 * i)) 1.0 else math.max(ranges.getDouble(2 * i + 1) - lo(i), 1e-300)).toArray
    def points(rows: DataFrame) = rows.rdd.map { row =>
      val v = new Array[Double](idx.length)
      val norm = new Array[Double](idx.length)
      var bm = 0L
      var i = 0
      while (i < idx.length) {
        if (row.isNullAt(idx(i))) { v(i) = Double.NaN; bm |= 1L << i }
        else {
          val x = row.get(idx(i)).asInstanceOf[Number].doubleValue()
          v(i) = if (dirs(i) == Direction.Max) -x else x
          norm(i) = (if (dirs(i) == Direction.Max) lo(i) + span(i) - x else x - lo(i)) / span(i)
        }
        i += 1
      }
      Point(row, v, bm, norm)
    }
    // Pivots: per group, the best sampled row under each of `Pivots` seeded
    // positive weightings of the normalized dimensions. Skewed weights pick
    // rows from different parts of the skyline, so few rows survive them.
    val rnd = new java.util.Random(Pivots)
    val weights = Array.tabulate(Pivots, dims.size)((k, i) =>
      if (diff(i)) 0.0 else if (k == 0) 1.0 else math.pow(rnd.nextDouble(), 4) + 1e-6)
    val pivots: Map[Long, Array[Array[Double]]] =
      points(df.sample(withReplacement = false, fraction = PivotSample, seed = Pivots))
      .mapPartitions { it =>
        val best = mutable.Map.empty[Long, Array[(Double, Array[Double])]]
        it.foreach { pt =>
          val b = best.getOrElseUpdate(pt.bitmap, Array.fill(Pivots)((Double.MaxValue, null)))
          var k = 0
          while (k < Pivots) {
            var s = 0.0
            var i = 0
            while (i < pt.norm.length) { s += weights(k)(i) * pt.norm(i); i += 1 }
            if (s < b(k)._1) b(k) = (s, pt.v)
            k += 1
          }
        }
        best.iterator
      }
      .collect()
      .groupBy(_._1)
      .map { case (g, parts) =>
        g -> (0 until Pivots).map(k => parts.map(_._2(k)).minBy(_._1)._2).distinct.toArray
      }
    val candidates = points(df)
      .filter(pt => !pivots.getOrElse(pt.bitmap, Array.empty[Array[Double]]).exists(p => dominates(p, pt.v, diff)))
      .map(_.row)
    // the rewrite reads the survivors twice, as the outer and inner relation
    val survivors = spark.createDataFrame(candidates, df.schema).cache()
    try {
      survivors.createOrReplaceTempView("__ref_c")
      spark.sql(ReferenceSkyline.rewrite("__ref_c", df.columns.toSeq, dims, nullAware))
        .selectExpr(outputCols: _*)
        .collect()
    } finally {
      survivors.unpersist(blocking = true)
      spark.catalog.dropTempView("__ref_c")
    }
  }

  /** `BruteForce` over the collected view, projected to `outputCols`; with
    * `distinct`, the output must consist of dimension columns only, so the
    * row kept for a tie does not matter.
    */
  def bruteForce(
      spark: SparkSession,
      view: String,
      outputCols: Seq[String],
      dims: Seq[(String, Direction)],
      incomplete: Boolean,
      distinct: Boolean): Seq[Row] = {
    val df = spark.table(view)
    val rows = df.collect().toSeq
    val idx = dims.map { case (c, d) => df.columns.indexOf(c) -> d }
    require(idx.forall(_._1 >= 0), s"dimension missing from $view")
    val out = outputCols.map(c => df.columns.indexOf(c))
    BruteForce.skyline(rows, idx, incomplete, distinct).map(r => Row.fromSeq(out.map(r.get)))
  }

  /** Run `body` on the view `spec.from` names, or on its SQL text
    * materialized as a temporary view.
    */
  private def onView[T](spark: SparkSession, spec: OracleSpec)(body: String => T): T =
    if (!spec.from.trim.toUpperCase.startsWith("SELECT")) body(spec.from)
    else {
      val view = "__ref_base"
      val cached = spark.sql(spec.from).cache()
      cached.createOrReplaceTempView(view)
      try body(view)
      finally {
        cached.unpersist(blocking = true)
        spark.catalog.dropTempView(view)
      }
    }

  /** The pruned `NOT EXISTS` rewrite for `spec`; for DISTINCT the output
    * holds only dimension columns, so distinct output rows are the answer.
    */
  def notExists(spark: SparkSession, spec: OracleSpec): Seq[Row] = onView(spark, spec) { v =>
    val rows = skyline(spark, v, spec.output, spec.dims, spec.nullAware).toSeq
    if (spec.distinct) rows.distinct else rows
  }

  /** BruteForce for every query; only affordable on small inputs. */
  def bruteForce(spark: SparkSession, spec: OracleSpec): Seq[Row] = onView(spark, spec) { v =>
    bruteForce(spark, v, spec.output, spec.dims, spec.nullAware, spec.distinct)
  }

  /** The expected rows of a query: BruteForce for DISTINCT and small
    * inputs, the pruned `NOT EXISTS` rewrite otherwise.
    */
  def expected(spark: SparkSession, spec: OracleSpec): Seq[Row] =
    if (spec.distinct || spec.small) bruteForce(spark, spec) else notExists(spark, spec)
}
