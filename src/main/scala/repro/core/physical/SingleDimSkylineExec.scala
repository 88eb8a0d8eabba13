package repro.core.physical

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.Attribute
import org.apache.spark.sql.catalyst.plans.physical.Partitioning
import org.apache.spark.sql.execution.{SparkPlan, UnaryExecNode}
import repro.core.{Direction, SkylineAlgorithms, SkylineDimension, SkylineKeys}

/** Optimized operator for single-dimension MIN/MAX skylines (§5.4).
  *
  * The Pareto optimum in one dimension is simply the optimum, so instead of
  * dominance testing the paper rewrites to "find the extreme value in a
  * scalar subquery, then select the tuples attaining it" — O(n) versus
  * O(n log n) for sort-and-take. Physically that is two passes over the
  * child: a distributed extreme aggregation (per-partition extreme, reduced
  * on the driver — the scalar subquery), then a distributed filter.
  *
  * Both passes read the dimension through [[SkylineExec.projection]] and
  * order it by a one-dimension key store (`keys=long[1]` or `keys=generic`
  * in EXPLAIN), with the null rule of the BNL nodes: in incomplete mode a
  * null is incomparable to everything (no mutually non-null dimension
  * exists), hence vacuously in the skyline, and the extreme is taken over
  * non-null values only; in complete mode nulls sort first in the
  * dimension's own order.
  */
case class SingleDimSkylineExec(
    dimension: SkylineDimension,
    incomplete: Boolean,
    child: SparkPlan)
    extends UnaryExecNode {

  require(dimension.direction != Direction.Diff,
    "single-dimension optimization does not apply to DIFF dimensions")

  override def output: Seq[Attribute] = child.output

  override def outputPartitioning: Partitioning = child.outputPartitioning

  private def keys: SkylineKeys = SkylineKeys(Seq(dimension), incomplete)

  override def simpleString(maxFields: Int): String =
    s"${super.simpleString(maxFields)}, keys=$keys"

  override protected def doExecute(): RDD[InternalRow] = {
    val (dims, childOutput, ks, incompleteMode) = (Seq(dimension), child.output, keys, incomplete)
    val childRdd = child.execute()
    // Pass 1 — the "scalar subquery": each partition's extreme, then the
    // extreme of those on the driver.
    val extreme = SingleDimSkylineExec.best(
      childRdd.mapPartitionsWithIndex { (idx, iter) =>
        SingleDimSkylineExec.best(
          iter.map(SkylineExec.projection(dims, childOutput, idx)), ks, incompleteMode).iterator
      }.collect().iterator,
      ks, incompleteMode)
    // Pass 2 — select the tuples attaining the extreme (plus, in incomplete
    // mode, the incomparable null-dimension tuples).
    childRdd.mapPartitionsWithIndex(
      { (idx, iter) =>
        val dim = SkylineExec.projection(dims, childOutput, idx)
        val store = ks.newStore()
        extreme.foreach(store.write(_, 0))
        iter.filter { row =>
          val d = dim(row)
          (incompleteMode && d.isNullAt(0)) ||
            extreme.isDefined && { store.write(d, 1); store.compareOn(0, 1, 0) == 0 }
        }
      },
      preservesPartitioning = true)
  }

  override protected def withNewChildInternal(newChild: SparkPlan): SingleDimSkylineExec =
    copy(child = newChild)
}

object SingleDimSkylineExec {
  /** An owned copy of the first best of the one-field rows `dims`, if there
    * is a candidate; incomplete mode leaves the nulls out. A DISTINCT BNL
    * window over one dimension holds at most one tuple.
    */
  private def best(dims: Iterator[InternalRow], keys: SkylineKeys, incomplete: Boolean)
      : Option[InternalRow] =
    SkylineAlgorithms.bnl(dims.filterNot(incomplete && _.isNullAt(0)), identity[InternalRow],
      keys.newStore(), distinct = true, (d: InternalRow) => d.copy()).iterator.nextOption()
}
