package repro.core.physical

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, BindReferences}
import org.apache.spark.sql.catalyst.plans.physical.Partitioning
import org.apache.spark.sql.execution.{SparkPlan, UnaryExecNode}
import repro.core.{Direction, DominanceChecker, GenericKeys, SkylineDimension}

/** Optimized operator for single-dimension MIN/MAX skylines (§5.4).
  *
  * The Pareto optimum in one dimension is simply the optimum, so instead of
  * dominance testing the paper rewrites to "find the extreme value in a
  * scalar subquery, then select the tuples attaining it" — O(n) versus
  * O(n log n) for sort-and-take. Physically that is two passes over the
  * child: a distributed extreme aggregation (per-partition extreme, reduced
  * on the driver — the scalar subquery), then a distributed filter.
  *
  * In incomplete mode tuples whose dimension is null are incomparable to
  * everything (no mutually non-null dimension exists), hence vacuously part
  * of the skyline; the extreme is taken over non-null values only. In
  * complete mode the null-aware nulls-first comparison keeps the operator
  * consistent with the complete [[SkylineExec]] on dirty data.
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

  override protected def doExecute(): RDD[InternalRow] = {
    val bound = BindReferences.bindReference(dimension.child, child.output)
    val chk = new DominanceChecker(Array(dimension.dataType), Array(dimension.direction), incomplete)
    val isMin = dimension.direction == Direction.Min
    val incompleteMode = incomplete
    val childRdd = child.execute()

    // Pass 1 — the "scalar subquery": per-partition extreme, driver reduce.
    // `better(a, b)` decides which value wins; in incomplete mode nulls are
    // excluded before calling, in complete mode nulls-first ordering applies.
    def better(a: Any, b: Any): Any = {
      val c = chk.compareValues(0, a, b)
      if ((isMin && c <= 0) || (!isMin && c >= 0)) a else b
    }
    val partitionExtremes: Array[Any] = childRdd
      .mapPartitions { iter =>
        var best: Any = null
        var seen = false
        iter.foreach { row =>
          // own the value: a string, struct or array from an unsafe row
          // aliases the row buffer, which is reused by the iterator
          val v = GenericKeys.owned(bound.eval(row))
          if (v != null || !incompleteMode) {
            if (!seen) { best = v; seen = true } else best = better(best, v)
          }
        }
        if (seen) Iterator.single(best) else Iterator.empty
      }
      .collect()

    if (partitionExtremes.isEmpty && !incompleteMode) {
      // Empty input (or all-null in a forced-complete run over garbage):
      // nothing attains an extreme.
      if (childRdd.partitions.isEmpty) childRdd
      else childRdd.mapPartitions(_ => Iterator.empty)
    } else {
      val extremeOpt: Option[Any] =
        if (partitionExtremes.isEmpty) None
        else Some(partitionExtremes.reduce(better))
      // Pass 2 — select the tuples attaining the extreme (plus, in
      // incomplete mode, the incomparable null-dimension tuples).
      childRdd.mapPartitions(
        _.filter { row =>
          val v = bound.eval(row)
          if (v == null && incompleteMode) true
          else extremeOpt.exists(e => chk.compareValues(0, v, e) == 0)
        },
        preservesPartitioning = true)
    }
  }

  override protected def withNewChildInternal(newChild: SparkPlan): SingleDimSkylineExec =
    copy(child = newChild)
}
