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
  * child, each reading the dimension through [[SkylineExec.projection]]
  * into a one-dimension key store (`keys=long[1]` or `keys=generic` in
  * EXPLAIN): the DISTINCT skyline of the dimension values, per partition
  * and then on the driver (the scalar subquery), and then the rows it does
  * not dominate.
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
    val (dims, childOutput, ks) = (Seq(dimension), child.output, keys)
    val childRdd = child.execute()
    // pass 1, the scalar subquery: the DISTINCT skyline of the dimension values
    val best = SingleDimSkylineExec.skyline(childRdd.mapPartitionsWithIndex { (idx, iter) =>
      SingleDimSkylineExec.skyline(iter.map(SkylineExec.projection(dims, childOutput, idx)), ks)
    }.collect().iterator, ks).toArray
    // pass 2: the rows that no tuple of it dominates
    childRdd.mapPartitionsWithIndex(
      { (idx, iter) =>
        val dim = SkylineExec.projection(dims, childOutput, idx)
        val store = ks.newStore()
        val slots = best.indices
        slots.foreach(i => store.write(best(i), i))
        val candidate = best.length
        iter.filter { row =>
          store.write(dim(row), candidate)
          !slots.exists(store.dominates(_, candidate))
        }
      },
      preservesPartitioning = true)
  }

  override protected def withNewChildInternal(newChild: SparkPlan): SingleDimSkylineExec =
    copy(child = newChild)
}

object SingleDimSkylineExec {
  /** Owned copies of the DISTINCT skyline of the one-field rows `dims`. */
  private def skyline(dims: Iterator[InternalRow], keys: SkylineKeys): Iterator[InternalRow] =
    SkylineAlgorithms.bnl(dims, identity[InternalRow], keys.newStore(), distinct = true,
      (d: InternalRow) => d.copy()).iterator
}
