package repro.core.physical

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, BaseGenericInternalRow, BindReferences, BoundReference, Expression, Nondeterministic}
import org.apache.spark.sql.catalyst.plans.physical.Partitioning
import org.apache.spark.sql.execution.UnaryExecNode
import repro.core.{DominanceChecker, SkylineDimension, SkylineKeys}

/** Shared plumbing for the skyline physical operators: binding the dimension
  * expressions against the child output and evaluating them per row.
  */
private[core] object SkylineExecUtil {

  /** Bind each dimension's expression to child output ordinals (driver side;
    * the bound expressions are serialized into the task closures).
    */
  def bind(dims: Seq[SkylineDimension], childOutput: Seq[Attribute]): Array[Expression] =
    dims.map(d => BindReferences.bindReference(d.child, childOutput)).toArray

  /** Dominance checker matched to the dimensions' exact data types. */
  def checker(dims: Seq[SkylineDimension], incomplete: Boolean): DominanceChecker =
    new DominanceChecker(
      dims.map(_.child.dataType).toArray,
      dims.map(_.direction).toArray,
      incomplete)

  /** Per-partition initialization for nondeterministic dimension
    * expressions (e.g. rand() as a skyline dimension).
    */
  def initExprs(bound: Array[Expression], partitionIndex: Int): Unit =
    bound.foreach(_.foreach {
      case n: Nondeterministic => n.initialize(partitionIndex)
      case _                   =>
    })
}

/** What the four BNL skyline nodes share: the child's output and
  * partitioning, the key path chosen from the dimension types (shown in
  * EXPLAIN as `keys=long[n]` or `keys=generic`), and the per-partition
  * loop that runs a kernel.
  */
private[physical] trait BnlSkylineExec extends UnaryExecNode {

  def dimensions: Seq[SkylineDimension]

  def distinct: Boolean

  protected def incomplete: Boolean

  protected def keys: SkylineKeys = SkylineKeys(dimensions, incomplete)

  override def output: Seq[Attribute] = child.output

  override def outputPartitioning: Partitioning = child.outputPartitioning

  override def simpleString(maxFields: Int): String =
    s"${super.simpleString(maxFields)}, keys=$keys"

  /** Run `kernel` on every partition of the child. The kernel gets the
    * partition's rows and a view of a row's dimension values
    * ([[DimensionRow]]); the input rows are reused buffers, so the kernel
    * copies (`copyRow`) only the rows it keeps, and its key store copies the
    * values it keeps.
    */
  protected def skylinePartitions(preservesPartitioning: Boolean)(
      kernel: (Iterator[InternalRow], InternalRow => InternalRow) => Iterator[InternalRow])
      : RDD[InternalRow] = {
    val bound = SkylineExecUtil.bind(dimensions, child.output)
    child.execute().mapPartitionsWithIndex(
      { (idx, iter) =>
        SkylineExecUtil.initExprs(bound, idx)
        kernel(iter, new DimensionRow(bound).of)
      },
      preservesPartitioning)
  }
}

private[physical] object BnlSkylineExec {
  val copyRow: InternalRow => InternalRow = _.copy()
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
