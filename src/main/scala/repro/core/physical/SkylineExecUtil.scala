package repro.core.physical

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, BaseGenericInternalRow, BindReferences, BoundReference, Expression, Nondeterministic}
import repro.core.SkylineDimension

/** Shared plumbing for the skyline physical operators: binding the dimension
  * expressions against the child output and evaluating them per row.
  */
private[core] object SkylineExecUtil {

  /** Bind each dimension's expression to child output ordinals (driver side;
    * the bound expressions are serialized into the task closures).
    */
  def bind(dims: Seq[SkylineDimension], childOutput: Seq[Attribute]): Array[Expression] =
    dims.map(d => BindReferences.bindReference(d.child, childOutput)).toArray

  /** Per-partition initialization for nondeterministic dimension
    * expressions (e.g. rand() as a skyline dimension).
    */
  def initExprs(bound: Array[Expression], partitionIndex: Int): Unit =
    bound.foreach(_.foreach {
      case n: Nondeterministic => n.initialize(partitionIndex)
      case _                   =>
    })
}

/** The skyline-dimension values of the current input row, as the row a key
  * store reads. A dimension that is a plain column is read from the input
  * row in place, with no copy or boxing; any other dimension expression is
  * evaluated once per row (so a nondeterministic one is drawn once).
  */
private[physical] final class DimensionRow(bound: Array[Expression])
    extends InternalRow with BaseGenericInternalRow {

  private val ordinals = bound.map {
    case b: BoundReference => b.ordinal
    case _                 => -1
  }
  private val computed = new Array[Any](bound.length)
  private var row: InternalRow = _

  /** Point this view at `input`. */
  def of(input: InternalRow): InternalRow = {
    row = input
    var i = 0
    while (i < bound.length) {
      if (ordinals(i) < 0) computed(i) = bound(i).eval(input)
      i += 1
    }
    this
  }

  override def numFields: Int = bound.length

  override protected def genericGet(i: Int): Any =
    if (ordinals(i) >= 0) row.get(ordinals(i), bound(i).dataType) else computed(i)

  override def isNullAt(i: Int): Boolean =
    if (ordinals(i) >= 0) row.isNullAt(ordinals(i)) else computed(i) == null

  override def getBoolean(i: Int): Boolean =
    if (ordinals(i) >= 0) row.getBoolean(ordinals(i)) else computed(i).asInstanceOf[Boolean]
  override def getByte(i: Int): Byte =
    if (ordinals(i) >= 0) row.getByte(ordinals(i)) else computed(i).asInstanceOf[Byte]
  override def getShort(i: Int): Short =
    if (ordinals(i) >= 0) row.getShort(ordinals(i)) else computed(i).asInstanceOf[Short]
  override def getInt(i: Int): Int =
    if (ordinals(i) >= 0) row.getInt(ordinals(i)) else computed(i).asInstanceOf[Int]
  override def getLong(i: Int): Long =
    if (ordinals(i) >= 0) row.getLong(ordinals(i)) else computed(i).asInstanceOf[Long]
  override def getFloat(i: Int): Float =
    if (ordinals(i) >= 0) row.getFloat(ordinals(i)) else computed(i).asInstanceOf[Float]
  override def getDouble(i: Int): Double =
    if (ordinals(i) >= 0) row.getDouble(ordinals(i)) else computed(i).asInstanceOf[Double]

  override def setNullAt(i: Int): Unit = throw new UnsupportedOperationException
  override def update(i: Int, value: Any): Unit = throw new UnsupportedOperationException
}
