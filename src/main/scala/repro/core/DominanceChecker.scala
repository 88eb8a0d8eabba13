package repro.core

import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.catalyst.util.TypeUtils
import org.apache.spark.sql.types.DataType

/** Typed dominance tests between tuples, written as the definition: the
  * oracle the key stores and kernels are tested against. The operators
  * compare through a [[KeyStore]], where the same rule is written once.
  *
  * Built once per clause: each dimension gets an `Ordering[Any]` matched to
  * its exact Catalyst [[DataType]] (via `TypeUtils.getInterpretedOrdering`),
  * so dominance checks never cast values.
  *
  * Tuples are represented as `Array[Any]` of the evaluated skyline-dimension
  * values (internal Catalyst values: Int, Long, Double, UTF8String, Decimal,
  * …), in the same order as `dims`.
  *
  * Two modes (Definition 3.1 and its incomplete variant from §3):
  *  - complete: all DIFF dims equal, at least as good in all MIN/MAX dims,
  *    strictly better in ≥ 1 MIN/MAX dim. Nulls sort first (deterministic
  *    fallback — the complete algorithm is only *correct* on null-free data,
  *    but it must not crash if the user forces it via COMPLETE).
  *  - incomplete: identical, but every comparison is restricted to dimensions
  *    where **both** tuples are non-null; the strict win must also be on a
  *    mutually non-null dimension. Transitivity is lost in this mode.
  */
final class DominanceChecker(
    val types: Array[DataType],
    val dirs: Array[Direction],
    val incomplete: Boolean)
    extends Serializable {

  require(types.length == dirs.length)
  require(!incomplete || types.length <= KeyStore.MaxMaskDimensions,
    KeyStore.tooManyIncompleteDimensions(types.length))

  // Rebuilt lazily on each executor: DataType is always serializable, the
  // interpreted orderings need not be.
  @transient private lazy val orderings: Array[Ordering[Any]] =
    types.map(t => TypeUtils.getInterpretedOrdering(t).asInstanceOf[Ordering[Any]])

  val arity: Int = dirs.length

  /** Compare on one dimension; nulls first (only reachable in complete mode
    * on dirty data — incomplete mode skips null dimensions before calling).
    */
  private def cmp(i: Int, a: Any, b: Any): Int =
    if (a == null && b == null) 0
    else if (a == null) -1
    else if (b == null) 1
    else orderings(i).compare(a, b)

  /** Does tuple `a` dominate tuple `b` (a < b in the paper's notation)? */
  def dominates(a: Array[Any], b: Array[Any]): Boolean =
    if (incomplete) dominatesIncomplete(a, b) else dominatesComplete(a, b)

  private def dominatesComplete(a: Array[Any], b: Array[Any]): Boolean = {
    var strict = false
    var i = 0
    while (i < arity) {
      val c = cmp(i, a(i), b(i))
      dirs(i) match {
        case Direction.Min =>
          if (c > 0) return false
          if (c < 0) strict = true
        case Direction.Max =>
          if (c < 0) return false
          if (c > 0) strict = true
        case Direction.Diff =>
          if (c != 0) return false
      }
      i += 1
    }
    strict
  }

  private def dominatesIncomplete(a: Array[Any], b: Array[Any]): Boolean = {
    var strict = false
    var i = 0
    while (i < arity) {
      val av = a(i); val bv = b(i)
      if (av != null && bv != null) {
        val c = orderings(i).compare(av, bv)
        dirs(i) match {
          case Direction.Min =>
            if (c > 0) return false
            if (c < 0) strict = true
          case Direction.Max =>
            if (c < 0) return false
            if (c > 0) strict = true
          case Direction.Diff =>
            if (c != 0) return false
        }
      }
      i += 1
    }
    strict
  }

  /** Exact tie on every skyline dimension (null ties with null) — the
    * SKYLINE OF DISTINCT duplicate criterion.
    */
  def equalOnDims(a: Array[Any], b: Array[Any]): Boolean = {
    var i = 0
    while (i < arity) {
      if (cmp(i, a(i), b(i)) != 0) return false
      i += 1
    }
    true
  }

  /** Null bitmap of a tuple: bit i set iff dimension i is null (§5.7). */
  def nullBitmap(a: Array[Any]): Long = KeyStore.nullMask(new GenericInternalRow(a), arity)
}
