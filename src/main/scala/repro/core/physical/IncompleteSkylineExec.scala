package repro.core.physical

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.IsNull
import org.apache.spark.sql.catalyst.plans.physical.{AllTuples, ClusteredDistribution, Distribution}
import org.apache.spark.sql.execution.SparkPlan
import repro.core.{SkylineAlgorithms, SkylineDimension}

/** Local-skyline node for (potentially) incomplete data (§5.7).
  *
  * Requires a `ClusteredDistribution` on the null-indicators of the skyline
  * dimensions (`IsNull(dim)` per dimension) — the paper's bitmap
  * partitioning, crafted "using the predefined IsNull() method". All tuples
  * sharing a null bitmap land in the same partition; a partition may hold
  * several bitmap groups (hash assignment), so each exact bitmap gets its
  * own streaming BNL window. Within one bitmap group incomplete dominance is
  * transitive (identical null positions), so eager BNL deletion is safe;
  * cross-group dominance is deliberately left to the global node (Lemma 5.1).
  */
case class IncompleteLocalSkylineExec(
    dimensions: Seq[SkylineDimension],
    distinct: Boolean,
    child: SparkPlan)
    extends BnlSkylineExec {

  override protected def incomplete: Boolean = true

  override def requiredChildDistribution: Seq[Distribution] =
    ClusteredDistribution(dimensions.map(d => IsNull(d.child))) :: Nil

  override protected def doExecute(): RDD[InternalRow] = {
    val ks = keys
    val dist = distinct
    val arity = dimensions.length
    skylinePartitions(preservesPartitioning = true) { (iter, dims) =>
      SkylineAlgorithms.bnlByNullBitmap(
        iter, dims, arity, () => ks.newStore(), dist, BnlSkylineExec.copyRow)
    }
  }

  override protected def withNewChildInternal(newChild: SparkPlan): IncompleteLocalSkylineExec =
    copy(child = newChild)
}

/** Global-skyline node for (potentially) incomplete data (§5.7, Appendix A).
  *
  * Incomplete dominance is not transitive and may be cyclic, so BNL's eager
  * deletion is unsound here. Instead all pairs are compared and dominated
  * tuples are only flagged; deletion happens after every pair has been seen.
  * This is the paper's correction of the Gulzar et al. algorithm — a
  * dominated tuple must still be allowed to eliminate the tuples *it*
  * dominates.
  */
case class IncompleteGlobalSkylineExec(
    dimensions: Seq[SkylineDimension],
    distinct: Boolean,
    child: SparkPlan)
    extends BnlSkylineExec {

  override protected def incomplete: Boolean = true

  override def requiredChildDistribution: Seq[Distribution] = AllTuples :: Nil

  override protected def doExecute(): RDD[InternalRow] = {
    val ks = keys
    val dist = distinct
    skylinePartitions(preservesPartitioning = false) { (iter, dims) =>
      SkylineAlgorithms.allPairsDeferred(iter, dims, ks.newStore(), dist, BnlSkylineExec.copyRow)
    }
  }

  override protected def withNewChildInternal(newChild: SparkPlan): IncompleteGlobalSkylineExec =
    copy(child = newChild)
}
