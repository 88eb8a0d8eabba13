package repro.reference

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.util.SQLOrderingUtil
import repro.core.Direction

/** Definitional in-memory skyline — the second, Spark-free oracle.
  *
  * Computes `SKY(R) = {r | ¬∃s: s < r}` by checking every pair, with the
  * complete or incomplete dominance of Definition 3.1. Deliberately naive so
  * its correctness is obvious; property tests diff the physical operators
  * (and the DuckDB rewrite) against it. Unlike `NOT EXISTS` it can also
  * express DISTINCT.
  */
object BruteForce {

  private def integral(n: Number): Boolean = n match {
    case _: java.lang.Byte | _: java.lang.Short | _: java.lang.Integer | _: java.lang.Long => true
    case _ => false
  }

  /** Spark SQL's order of two values of one column: floating point as
    * `SQLOrderingUtil` (NaN above +Infinity and equal to itself, -0.0 equal
    * to 0.0), integral and decimal values exactly.
    */
  private def cmp(a: Any, b: Any): Int = (a, b) match {
    case (x: java.lang.Double, y: java.lang.Double) => SQLOrderingUtil.compareDoubles(x, y)
    case (x: java.lang.Float, y: java.lang.Float)   => SQLOrderingUtil.compareFloats(x, y)
    case (x: java.math.BigDecimal, y: java.math.BigDecimal) => x.compareTo(y)
    case (x: Number, y: Number) if integral(x) && integral(y) =>
      java.lang.Long.compare(x.longValue(), y.longValue())
    // mixed widths: compare as doubles so tests can mix Int/Double freely
    case (x: Number, y: Number) =>
      SQLOrderingUtil.compareDoubles(x.doubleValue(), y.doubleValue())
    case _ => a.asInstanceOf[Comparable[Any]].compareTo(b)
  }

  /** A dimension value as a DISTINCT key: equal under [[cmp]] iff equal. */
  private def distinctKey(v: Any): Any = v match {
    case d: java.lang.Double => java.lang.Double.doubleToLongBits(if (d == 0.0) 0.0 else d)
    case f: java.lang.Float  => java.lang.Float.floatToIntBits(if (f == 0.0f) 0.0f else f)
    case other               => other
  }

  /** Does tuple `a` dominate tuple `b` on the given (index, direction)
    * dimensions?
    */
  def dominates(
      a: Row,
      b: Row,
      dims: Seq[(Int, Direction)],
      incomplete: Boolean): Boolean = {
    var strict = false
    dims.foreach { case (i, dir) =>
      val av = a.get(i)
      val bv = b.get(i)
      val bothPresent = av != null && bv != null
      if (!bothPresent) {
        if (!incomplete) {
          // complete-mode fallback on dirty data: nulls sort first (matches
          // DominanceChecker so forced-COMPLETE runs stay comparable)
          val c = if (av == null && bv == null) 0 else if (av == null) -1 else 1
          dir match {
            case Direction.Min  => if (c > 0) return false else if (c < 0) strict = true
            case Direction.Max  => if (c < 0) return false else if (c > 0) strict = true
            case Direction.Diff => if (c != 0) return false
          }
        }
        // incomplete mode: skip this dimension entirely
      } else {
        val c = cmp(av, bv)
        dir match {
          case Direction.Min  => if (c > 0) return false else if (c < 0) strict = true
          case Direction.Max  => if (c < 0) return false else if (c > 0) strict = true
          case Direction.Diff => if (c != 0) return false
        }
      }
    }
    strict
  }

  /** The skyline of `rows`; with `distinct`, one row per distinct
    * combination of dimension values (first occurrence wins).
    */
  def skyline(
      rows: Seq[Row],
      dims: Seq[(Int, Direction)],
      incomplete: Boolean,
      distinct: Boolean = false): Seq[Row] = {
    val undominated =
      rows.filter(r => !rows.exists(s => dominates(s, r, dims, incomplete)))
    if (!distinct) undominated
    else {
      val seen = scala.collection.mutable.HashSet.empty[Seq[Any]]
      undominated.filter(r => seen.add(dims.map { case (i, _) => distinctKey(r.get(i)) }))
    }
  }
}
