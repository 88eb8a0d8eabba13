package repro.core

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.util.TypeUtils
import org.apache.spark.sql.types._

/** Index-addressed store of skyline keys, the one structure the kernels of
  * [[SkylineAlgorithms]] run on, and the one place the dominance rule is
  * written (§5.5's dominance-check utility). Slot `i` holds the key of one
  * tuple: its skyline-dimension values and their null mask. Key position p
  * holds dimension `order(p)`: DIFF dimensions come first.
  *
  * The rule (Definition 3.1 and its incomplete variant of §3): a tuple
  * dominates another if their DIFF values are equal, it is at least as good
  * in every MIN/MAX dimension and strictly better in one. Complete mode
  * sorts nulls first in each dimension's own order (the complete algorithm
  * is only correct on null-free data, but it must not fail when `COMPLETE`
  * forces it onto nulls); incomplete mode compares only the dimensions that
  * are non-null on both sides. Subclasses supply the encoding and may
  * shortcut [[relate]] and [[dominates]] for pairs with the same null mask.
  */
abstract class KeyStore(dirs: Array[Direction], incomplete: Boolean) {
  import KeyStore._

  require(!incomplete || dirs.length <= MaxMaskDimensions, tooManyIncompleteDimensions(dirs.length))

  protected final val arity: Int = dirs.length

  protected final val order: Array[Int] =
    (dirs.indices.filter(dirs(_) == Direction.Diff) ++
      dirs.indices.filter(dirs(_) != Direction.Diff)).toArray
  protected final val diffs: Int = dirs.count(_ == Direction.Diff)

  /** The key positions of the first 64 MIN/MAX dimensions, where
    * [[SkylineAlgorithms.pivotMerge]] takes medians (its masks are one `long`).
    */
  final val ranked: Array[Int] = Array.range(diffs, math.min(arity, diffs + MaxMaskDimensions))

  /** The complete order of slots `a` and `b` at key position `p`, better
    * first: negative if `a` is better. Nulls sit first in the dimension's
    * own order, so if slot a dominates slot b in complete mode then
    * `compareOn(p, a, b) <= 0` at every MIN/MAX position.
    */
  def compareOn(p: Int, a: Int, b: Int): Int

  /** The null mask of `slot`: bit p set iff key position p is null. */
  def nullMask(slot: Int): Long

  /** Both dominance directions and exact equality in one pass:
    * [[KeyStore.Equal]], [[KeyStore.FirstDominates]],
    * [[KeyStore.SecondDominates]] or [[KeyStore.Neither]].
    */
  def relate(a: Int, b: Int): Int = {
    val ma = nullMask(a)
    val mb = nullMask(b)
    // incomplete mode skips the dimensions null on either side
    val skip = if (incomplete) ma | mb else 0L
    var r = Equal
    var p = 0
    while (p < arity) {
      val c = if ((skip >>> p & 1L) != 0) 0 else compareOn(p, a, b)
      if (c != 0) {
        if (p < diffs) return Neither
        r |= (if (c < 0) FirstDominates else SecondDominates)
        if (r == Neither) return Neither
      }
      p += 1
    }
    // different null positions are never an exact tie
    if (r == Equal && ma != mb) Neither else r
  }

  /** Does slot `a` dominate slot `b`? */
  def dominates(a: Int, b: Int): Boolean = relate(a, b) == FirstDominates

  /** Write the key of `dims` (one field per dimension, in dimension order)
    * into `slot`, growing the store if `slot` is past its end. The slot
    * keeps no reference into `dims`, which may be a reused buffer.
    */
  def write(dims: InternalRow, slot: Int): Unit
}

object KeyStore {
  /** A null mask is one `long`. */
  final val MaxMaskDimensions = 64

  final val Equal = 0
  final val FirstDominates = 1
  final val SecondDominates = 2
  final val Neither = 3

  /** Null bitmap of `dims`: bit i set iff dimension i is null (§5.7). */
  def nullMask(dims: InternalRow, arity: Int): Long = {
    var bits = 0L
    var i = 0
    while (i < arity) {
      if (dims.isNullAt(i)) bits |= 1L << i
      i += 1
    }
    bits
  }

  /** Incomplete dominance groups tuples by null mask, which is one `long`. */
  def tooManyIncompleteDimensions(n: Int): String =
    s"an incomplete skyline supports at most $MaxMaskDimensions dimensions " +
      s"(got $n): use SKYLINE OF COMPLETE or make the dimensions non-nullable"
}

/** The key representation of one skyline, chosen from the Catalyst types of
  * its dimensions alone (§5.5: "match the data type to avoid costly
  * casting"). If every type has an exact order-preserving `long` image
  * ([[LongKeys.encodable]]) and there are at most 64 dimensions, keys are
  * flat `long[]` rows ([[LongKeys]]); otherwise they are the evaluated
  * values compared by Catalyst orderings ([[GenericKeys]]).
  */
final class SkylineKeys(types: Array[DataType], dirs: Array[Direction], incomplete: Boolean)
    extends Serializable {

  val encoded: Boolean =
    types.length <= KeyStore.MaxMaskDimensions && types.forall(LongKeys.encodable)

  def newStore(): KeyStore =
    if (encoded) new LongKeys(types, dirs, incomplete) else new GenericKeys(types, dirs, incomplete)

  /** The key path as EXPLAIN shows it: `long[n]` or `generic`. */
  override def toString: String = if (encoded) s"long[${types.length}]" else "generic"
}

object SkylineKeys {
  def apply(dims: Seq[SkylineDimension], incomplete: Boolean): SkylineKeys =
    new SkylineKeys(dims.map(_.dataType).toArray, dims.map(_.direction).toArray, incomplete)
}

/** Keys encoded as order-preserving `long`s, one flat `long[]` row per slot.
  *
  * Every MIN/MAX/DIFF value maps to a `long` whose signed order is the
  * dimension's Catalyst order: integral, date and timestamp values as they
  * are; floats and doubles as sortable bits, after `-0.0` becomes `0.0` and
  * every NaN the one canonical NaN, so NaN is above +Infinity and `-0.0`
  * equals `0.0` exactly as in Spark's `SQLOrderingUtil`. A MAX dimension
  * stores the bitwise NOT of that, which reverses the order without
  * overflow, so smaller is better in every MIN/MAX position. A null is a
  * set bit in the slot's mask and a 0 in its position, so two tuples with
  * the same null positions compare like complete ones: the tight loops of
  * [[relate]] and [[dominates]]. Other pairs take the rule of [[KeyStore]].
  */
final class LongKeys(types: Array[DataType], dirs: Array[Direction], incomplete: Boolean)
    extends KeyStore(dirs, incomplete) {
  import KeyStore._
  import LongKeys._

  require(arity <= MaxMaskDimensions, s"long keys hold at most $MaxMaskDimensions dimensions")

  private val kinds: Array[Int] = order.map(i => kindOf(types(i)))
  private val flips: Array[Long] = order.map(i => if (dirs(i) == Direction.Max) -1L else 0L)

  private var keys = new Array[Long](arity * 16)
  private var masks = new Array[Long](16)

  override def write(dims: InternalRow, slot: Int): Unit = {
    if (slot >= masks.length) {
      val n = math.max(slot + 1, masks.length * 2)
      keys = java.util.Arrays.copyOf(keys, n * arity)
      masks = java.util.Arrays.copyOf(masks, n)
    }
    val base = slot * arity
    var mask = 0L
    var p = 0
    while (p < arity) {
      val i = order(p)
      keys(base + p) =
        if (dims.isNullAt(i)) { mask |= 1L << p; 0L }
        else flips(p) ^ (kinds(p) match {
          case KBoolean => if (dims.getBoolean(i)) 1L else 0L
          case KByte    => dims.getByte(i).toLong
          case KShort   => dims.getShort(i).toLong
          case KInt     => dims.getInt(i).toLong
          case KLong    => dims.getLong(i)
          case KFloat   => floatKey(dims.getFloat(i))
          case _        => doubleKey(dims.getDouble(i))
        })
      p += 1
    }
    masks(slot) = mask
  }

  override def nullMask(slot: Int): Long = masks(slot)

  override def relate(a: Int, b: Int): Int = {
    if (masks(a) != masks(b)) return super.relate(a, b)
    val k = keys
    val oa = a * arity
    val ob = b * arity
    var p = 0
    while (p < diffs) {
      if (k(oa + p) != k(ob + p)) return Neither
      p += 1
    }
    var r = Equal
    while (p < arity) {
      val x = k(oa + p)
      val y = k(ob + p)
      r |= (if (x < y) FirstDominates else Equal) | (if (x > y) SecondDominates else Equal)
      p += 1
    }
    r
  }

  override def dominates(a: Int, b: Int): Boolean = {
    if (masks(a) != masks(b)) return super.relate(a, b) == FirstDominates
    val k = keys
    val oa = a * arity
    val ob = b * arity
    var p = 0
    while (p < diffs) {
      if (k(oa + p) != k(ob + p)) return false
      p += 1
    }
    var strict = false
    while (p < arity) {
      val x = k(oa + p)
      val y = k(ob + p)
      if (x > y) return false
      strict |= x < y
      p += 1
    }
    strict
  }

  override def compareOn(p: Int, a: Int, b: Int): Int = {
    val na = (masks(a) >>> p & 1L) != 0
    val nb = (masks(b) >>> p & 1L) != 0
    if (!na && !nb) java.lang.Long.compare(keys(a * arity + p), keys(b * arity + p))
    else if (na == nb) 0
    // one null: nulls sort first in the dimension's own order, which a MAX
    // position stores reversed
    else if (na == (flips(p) == 0L)) -1
    else 1
  }
}

object LongKeys {
  private final val KBoolean = 0
  private final val KByte = 1
  private final val KShort = 2
  private final val KInt = 3
  private final val KLong = 4
  private final val KFloat = 5
  private final val KDouble = 6

  private def kindOf(t: DataType): Int = t match {
    case BooleanType                                => KBoolean
    case ByteType                                   => KByte
    case ShortType                                  => KShort
    case IntegerType | DateType                     => KInt
    case LongType | TimestampType | TimestampNTZType => KLong
    case FloatType                                  => KFloat
    case DoubleType                                 => KDouble
    case _                                          => -1
  }

  /** Types whose values have an exact order-preserving `long` image. */
  def encodable(t: DataType): Boolean = kindOf(t) >= 0

  /** Sortable bits: flipping the magnitude bits of negative values makes the
    * signed `long` order the IEEE order; `doubleToLongBits` collapses every
    * NaN into one, which lands above +Infinity.
    */
  def doubleKey(d: Double): Long = {
    val bits = java.lang.Double.doubleToLongBits(if (d == 0.0) 0.0 else d)
    bits ^ ((bits >> 63) & Long.MaxValue)
  }

  def floatKey(f: Float): Long = {
    val bits = java.lang.Float.floatToIntBits(if (f == 0.0f) 0.0f else f)
    (bits ^ ((bits >> 31) & Int.MaxValue)).toLong
  }
}

/** Keys as evaluated values compared by each dimension's Catalyst
  * ordering (`TypeUtils.getInterpretedOrdering`): the path for dimension
  * types without a `long` image (strings, binary, decimals, nested types).
  */
final class GenericKeys(types: Array[DataType], dirs: Array[Direction], incomplete: Boolean)
    extends KeyStore(dirs, incomplete) {

  private val orderings: Array[Ordering[Any]] =
    order.map(i => TypeUtils.getInterpretedOrdering(types(i)).asInstanceOf[Ordering[Any]])
  private val max: Array[Boolean] = order.map(dirs(_) == Direction.Max)

  private var values = new Array[Array[Any]](16)
  private var masks = new Array[Long](16)

  /** Each value is copied, so no slot aliases the buffer of `dims`. */
  override def write(dims: InternalRow, slot: Int): Unit = {
    if (slot >= masks.length) {
      val n = math.max(slot + 1, masks.length * 2)
      values = java.util.Arrays.copyOf(values, n)
      masks = java.util.Arrays.copyOf(masks, n)
    }
    val vs = new Array[Any](arity)
    var mask = 0L
    var p = 0
    while (p < arity) {
      val i = order(p)
      if (dims.isNullAt(i)) mask |= 1L << p
      else vs(p) = InternalRow.copyValue(dims.get(i, types(i)))
      p += 1
    }
    values(slot) = vs
    masks(slot) = mask
  }

  override def nullMask(slot: Int): Long = masks(slot)

  override def compareOn(p: Int, a: Int, b: Int): Int = {
    val x = values(a)(p)
    val y = values(b)(p)
    // nulls first in the dimension's own order
    val c =
      if (x == null) (if (y == null) 0 else -1)
      else if (y == null) 1
      else orderings(p).compare(x, y)
    if (max(p)) -c else c
  }
}
