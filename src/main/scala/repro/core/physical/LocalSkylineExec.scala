package repro.core.physical

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.plans.physical.{Distribution, UnspecifiedDistribution}
import org.apache.spark.sql.execution.SparkPlan
import repro.core.{SkylineAlgorithms, SkylineDimension}

/** Distributed local-skyline node for complete data (§5.5–5.6).
  *
  * Runs Block-Nested-Loop independently inside every input partition and
  * emits each partition's local skyline. Distribution is left unspecified —
  * exactly the paper's choice: whatever partitioning the child produced is
  * kept, preserving locality and avoiding an extra shuffle.
  */
case class LocalSkylineExec(
    dimensions: Seq[SkylineDimension],
    distinct: Boolean,
    child: SparkPlan)
    extends BnlSkylineExec {

  override protected def incomplete: Boolean = false

  override def requiredChildDistribution: Seq[Distribution] =
    UnspecifiedDistribution :: Nil

  override protected def doExecute(): RDD[InternalRow] = {
    val ks = keys
    val dist = distinct
    skylinePartitions(preservesPartitioning = true) { (iter, dims) =>
      SkylineAlgorithms.bnl(iter, dims, ks.newStore(), dist, BnlSkylineExec.copyRow).iterator
    }
  }

  override protected def withNewChildInternal(newChild: SparkPlan): LocalSkylineExec =
    copy(child = newChild)
}
