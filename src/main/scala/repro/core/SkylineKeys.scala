package repro.core

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.util.{ArrayData, MapData}
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String

/** Index-addressed store of skyline keys, the one structure the kernels of
  * [[SkylineAlgorithms]] run on. Slot `i` holds the key of one tuple: its
  * skyline-dimension values and their null mask.
  */
abstract class KeyStore {

  /** Both dominance directions and exact equality in one pass:
    * [[KeyStore.Equal]], [[KeyStore.FirstDominates]],
    * [[KeyStore.SecondDominates]] or [[KeyStore.Neither]].
    */
  def relate(a: Int, b: Int): Int

  /** Does slot `a` dominate slot `b`? One direction only: it stops at the
    * first dimension where `a` is worse or a DIFF value differs.
    */
  def dominates(a: Int, b: Int): Boolean

  /** The key positions of the MIN/MAX dimensions, at most 64: the
    * positions [[SkylineAlgorithms.pivotMerge]] takes medians on.
    */
  def ranked: Array[Int]

  /** The complete order of slots `a` and `b` at key position `p` of
    * [[ranked]], better first: negative if `a` is better. Nulls sit first in
    * the dimension's own order, as in [[relate]], so if slot a dominates
    * slot b then `compareOn(p, a, b) <= 0` at every ranked position.
    */
  def compareOn(p: Int, a: Int, b: Int): Int

  /** Write the key of `dims` (one field per dimension, in dimension order)
    * into `slot`. The slot keeps no reference into `dims`, which may be a
    * reused buffer.
    */
  def write(dims: InternalRow, slot: Int): Unit

  /** Copy the key of slot `from` into slot `to`. */
  def move(from: Int, to: Int): Unit

  /** Make slots `[0, slots)` addressable. */
  def reserve(slots: Int): Unit
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
}

/** The key representation of one skyline, chosen from the Catalyst types of
  * its dimensions alone (§5.5: "match the data type to avoid costly
  * casting"). If every type has an exact order-preserving `long` image
  * ([[LongKeys.encodable]]) and there are at most 64 dimensions, keys are
  * flat `long[]` rows ([[LongKeys]]); otherwise they are the evaluated
  * values compared by a [[DominanceChecker]] ([[GenericKeys]]).
  */
final class SkylineKeys(types: Array[DataType], dirs: Array[Direction], incomplete: Boolean)
    extends Serializable {

  val encoded: Boolean =
    types.length <= KeyStore.MaxMaskDimensions && types.forall(LongKeys.encodable)

  @transient private lazy val checker = new DominanceChecker(types, dirs, incomplete)

  def newStore(): KeyStore =
    if (encoded) new LongKeys(types, dirs, incomplete) else new GenericKeys(checker)

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
  * overflow, so smaller is better in every MIN/MAX position. DIFF
  * dimensions are stored first. A null is a set bit in the slot's mask and
  * a 0 in its position, so two tuples with the same null positions compare
  * like complete ones: the tight loop of [[relate]]. Other pairs take the
  * null-aware loop: incomplete mode skips dimensions null on either side,
  * complete mode sorts nulls first in the dimension's own order, as
  * [[DominanceChecker]] does.
  */
final class LongKeys(types: Array[DataType], dirs: Array[Direction], incomplete: Boolean)
    extends KeyStore {
  import KeyStore._
  import LongKeys._

  private val arity = types.length
  require(arity <= MaxMaskDimensions, s"long keys hold at most $MaxMaskDimensions dimensions")

  /** Key position p holds dimension `order(p)`; DIFF dimensions come first. */
  private val order: Array[Int] =
    (dirs.indices.filter(dirs(_) == Direction.Diff) ++
      dirs.indices.filter(dirs(_) != Direction.Diff)).toArray
  private val diffs = dirs.count(_ == Direction.Diff)
  private val kinds: Array[Int] = order.map(i => kindOf(types(i)))
  private val flips: Array[Long] = order.map(i => if (dirs(i) == Direction.Max) -1L else 0L)

  private var keys = new Array[Long](arity * 16)
  private var masks = new Array[Long](16)

  override def reserve(slots: Int): Unit =
    if (slots > masks.length) {
      val n = math.max(slots, masks.length * 2)
      keys = java.util.Arrays.copyOf(keys, n * arity)
      masks = java.util.Arrays.copyOf(masks, n)
    }

  override def write(dims: InternalRow, slot: Int): Unit = {
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

  override def move(from: Int, to: Int): Unit = {
    System.arraycopy(keys, from * arity, keys, to * arity, arity)
    masks(to) = masks(from)
  }

  override def relate(a: Int, b: Int): Int = {
    val ma = masks(a)
    val mb = masks(b)
    if (ma != mb) return relateNulls(a, b, ma, mb)
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
    val ma = masks(a)
    val mb = masks(b)
    if (ma != mb) return relateNulls(a, b, ma, mb) == FirstDominates
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

  override val ranked: Array[Int] = Array.range(diffs, arity)

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

  /** [[relate]] for two slots with different null positions. */
  private def relateNulls(a: Int, b: Int, ma: Long, mb: Long): Int = {
    var r = Equal
    var p = 0
    while (p < arity) {
      // incomplete mode skips the dimensions null on either side
      val c = if (incomplete && ((ma | mb) >>> p & 1L) != 0) 0 else compareOn(p, a, b)
      if (c != 0) {
        if (p < diffs) return Neither
        r |= (if (c < 0) FirstDominates else SecondDominates)
        if (r == Neither) return Neither
      }
      p += 1
    }
    // different null positions are never an exact tie
    if (r == Equal) Neither else r
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

/** Keys as evaluated values compared through a [[DominanceChecker]]: the
  * path for dimension types without a `long` image (strings, binary,
  * decimals, nested types) and the oracle the encoded path is tested
  * against.
  */
final class GenericKeys(checker: DominanceChecker) extends KeyStore {

  private var values = new Array[Array[Any]](16)

  override def reserve(slots: Int): Unit =
    if (slots > values.length)
      values = java.util.Arrays.copyOf(values, math.max(slots, values.length * 2))

  override def write(dims: InternalRow, slot: Int): Unit =
    values(slot) = Array.tabulate[Any](checker.arity)(i => GenericKeys.owned(dims.get(i, checker.types(i))))

  override def move(from: Int, to: Int): Unit = values(to) = values(from)

  override def relate(a: Int, b: Int): Int = checker.relate(values(a), values(b))

  override def dominates(a: Int, b: Int): Boolean = checker.dominates(values(a), values(b))

  /** The first 64 MIN/MAX dimensions (a pivot mask is one `long`); the
    * others take no part in the pivot, which only weakens its pruning.
    */
  override val ranked: Array[Int] =
    checker.dirs.indices.filter(checker.dirs(_) != Direction.Diff)
      .take(KeyStore.MaxMaskDimensions).toArray

  override def compareOn(p: Int, a: Int, b: Int): Int = {
    val c = checker.compareValues(p, values(a)(p), values(b)(p))
    if (checker.dirs(p) == Direction.Max) -c else c
  }
}

object GenericKeys {
  /** A value that no longer aliases the buffer of the row it came from. */
  private[core] def owned(v: Any): Any = v match {
    case s: UTF8String  => s.copy()
    case r: InternalRow => r.copy()
    case a: ArrayData   => a.copy()
    case m: MapData     => m.copy()
    case other          => other
  }
}
