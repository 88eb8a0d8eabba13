package repro.core.physical

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, IsNull, MutableProjection, SpecificInternalRow}
import org.apache.spark.sql.catalyst.plans.physical.{AllTuples, ClusteredDistribution, Distribution, Partitioning, UnspecifiedDistribution}
import org.apache.spark.sql.execution.{SparkPlan, UnaryExecNode}
import repro.core.{SkylineAlgorithms, SkylineDimension, SkylineKeys}

/** The paper's BNL skyline operator (§5.5–5.7, Listing 8) in its four roles.
  * `incomplete` and `global` pick the distribution the node requires and the
  * kernel it runs; the role is the node's name in EXPLAIN and in the RDD
  * scopes of its stages.
  *
  *  - `LocalSkyline` (complete, local): Block-Nested-Loop independently
  *    inside every input partition, emitting each partition's local skyline.
  *    Distribution is left unspecified — exactly the paper's choice:
  *    whatever partitioning the child produced is kept, preserving locality
  *    and avoiding an extra shuffle.
  *  - `GlobalSkyline` (complete, global): requires `AllTuples` so that every
  *    surviving tuple is processed by one task; the planner's
  *    EnsureRequirements inserts the single-partition exchange. With `merge`
  *    set its input is the union of the local skylines, and
  *    [[SkylineAlgorithms.pivotMerge]] merges it. Departure from the paper,
  *    whose global step is the same BNL as the local one: most of that union
  *    is incomparable, and the pivot masks skip most of BNL's pairs. Without
  *    `merge` (the "non-distributed complete" algorithm of §6.3, directly on
  *    the child) it streams the whole table through BNL, which keeps only
  *    the window in memory.
  *  - `IncompleteLocalSkyline`: requires a `ClusteredDistribution` on the
  *    null-indicators of the dimensions (`IsNull(dim)` per dimension) — the
  *    paper's bitmap partitioning, crafted "using the predefined IsNull()
  *    method". All tuples sharing a null bitmap land in the same partition;
  *    a partition may hold several bitmap groups (hash assignment), so each
  *    exact bitmap gets its own streaming BNL window. Within one bitmap group
  *    incomplete dominance is transitive (identical null positions), so eager
  *    BNL deletion is safe; cross-group dominance is deliberately left to the
  *    global node (Lemma 5.1).
  *  - `IncompleteGlobalSkyline`: requires `AllTuples`. Incomplete dominance
  *    is not transitive and may be cyclic, so BNL's eager deletion is unsound
  *    here. Instead all pairs are compared and dominated tuples are only
  *    flagged; deletion happens after every pair has been seen. This is the
  *    paper's correction of the Gulzar et al. algorithm (Appendix A) — a
  *    dominated tuple must still be allowed to eliminate the tuples *it*
  *    dominates.
  *
  * Every role reads the dimensions of each reused input row through one
  * `MutableProjection` per task, into a [[SpecificInternalRow]] whose
  * primitive slots the long keys read unboxed, and copies only the rows
  * that enter a window. The key path is chosen from the dimension types and
  * shown in EXPLAIN as `keys=long[n]` or `keys=generic`.
  */
case class SkylineExec(
    dimensions: Seq[SkylineDimension],
    distinct: Boolean,
    incomplete: Boolean,
    global: Boolean,
    merge: Boolean,
    child: SparkPlan)
    extends UnaryExecNode {

  require(!merge || (global && !incomplete), "only a complete global node merges local skylines")

  override def nodeName: String =
    (if (incomplete) "Incomplete" else "") + (if (global) "GlobalSkyline" else "LocalSkyline")

  override def output: Seq[Attribute] = child.output

  override def outputPartitioning: Partitioning = child.outputPartitioning

  override def requiredChildDistribution: Seq[Distribution] =
    if (global) AllTuples :: Nil
    else if (incomplete) ClusteredDistribution(dimensions.map(d => IsNull(d.child))) :: Nil
    else UnspecifiedDistribution :: Nil

  private def keys: SkylineKeys = SkylineKeys(dimensions, incomplete)

  // the flags are already in the node name, and `merge` in the local node below
  override protected def stringArgs: Iterator[Any] = Iterator(dimensions, distinct)

  override def simpleString(maxFields: Int): String =
    s"${super.simpleString(maxFields)}, keys=$keys"

  override protected def doExecute(): RDD[InternalRow] = {
    val (dimensionList, childOutput) = (dimensions, child.output)
    val ks = keys
    val (dist, incompleteMode, globalMode, mergeMode) = (distinct, incomplete, global, merge)
    val arity = dimensions.length
    // the input rows are reused buffers: a kernel keeps a row only as a copy
    val copyRow: InternalRow => InternalRow = _.copy()
    child.execute().mapPartitionsWithIndex(
      { (idx, iter) =>
        val dims = SkylineExec.projection(dimensionList, childOutput, idx)
        if (mergeMode)
          SkylineAlgorithms.pivotMerge(iter, dims, ks.newStore(), dist, copyRow)
        else if (!incompleteMode)
          SkylineAlgorithms.bnl(iter, dims, ks.newStore(), dist, copyRow).iterator
        else if (globalMode)
          SkylineAlgorithms.allPairsDeferred(iter, dims, ks.newStore(), dist, copyRow)
        else
          SkylineAlgorithms.bnlByNullBitmap(
            iter, dims, arity, () => ks.newStore(), dist, copyRow)
      },
      preservesPartitioning = !globalMode)
  }

  override protected def withNewChildInternal(newChild: SparkPlan): SkylineExec =
    copy(child = newChild)
}

object SkylineExec {
  /** A task's projection of the dimensions (see the class comment). */
  def projection(dims: Seq[SkylineDimension], input: Seq[Attribute], partition: Int)
      : InternalRow => InternalRow = {
    val project = MutableProjection.create(dims.map(_.child), input)
      .target(new SpecificInternalRow(dims.map(_.dataType)))
    project.initialize(partition)
    project
  }
}
