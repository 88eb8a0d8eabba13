package repro.core.physical

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.plans.physical.{AllTuples, Distribution}
import org.apache.spark.sql.execution.SparkPlan
import repro.core.{SkylineAlgorithms, SkylineDimension}

/** Global-skyline node for complete data (§5.5–5.6).
  *
  * Requires the `AllTuples` distribution so that every surviving tuple —
  * normally the union of the local skylines — is processed by one task; the
  * planner's EnsureRequirements inserts the single-partition exchange. The
  * algorithm is the same BNL as the local step (the paper reuses the node
  * logic; only the distribution differs). Used directly on the child for the
  * "non-distributed complete" algorithm of §6.3.
  */
case class GlobalSkylineExec(
    dimensions: Seq[SkylineDimension],
    distinct: Boolean,
    child: SparkPlan)
    extends BnlSkylineExec {

  override protected def incomplete: Boolean = false

  override def requiredChildDistribution: Seq[Distribution] = AllTuples :: Nil

  override protected def doExecute(): RDD[InternalRow] = {
    val ks = keys
    val dist = distinct
    skylinePartitions(preservesPartitioning = false) { (iter, dims) =>
      SkylineAlgorithms.bnl(iter, dims, ks.newStore(), dist, BnlSkylineExec.copyRow).iterator
    }
  }

  override protected def withNewChildInternal(newChild: SparkPlan): GlobalSkylineExec =
    copy(child = newChild)
}
