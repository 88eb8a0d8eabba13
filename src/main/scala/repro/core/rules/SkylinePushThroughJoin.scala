package repro.core.rules

import org.apache.spark.sql.catalyst.expressions.AliasHelper
import org.apache.spark.sql.catalyst.plans.{LeftOuter, RightOuter}
import org.apache.spark.sql.catalyst.plans.logical.{Join, LogicalPlan, Project}
import org.apache.spark.sql.catalyst.rules.Rule
import repro.core.{SkylineDimension, SkylineOperator}

/** Catalyst optimization: move the skyline into one side of a
  * *non-reductive* join (§5.4; transformation from Börzsönyi et al., with
  * correctness conditions from Carey & Kossmann).
  *
  * Non-reductiveness means every tuple of the pushed-into side is guaranteed
  * a join partner, so computing the skyline before the join eliminates the
  * same tuples while shrinking the inputs of both the join and the skyline.
  * Spark has no database constraints to infer the general FK case from, so
  * this rule uses the inference that *is* sound from the plan alone: the
  * preserved side of an outer join always survives. Concretely the skyline
  * is pushed into the left side of a LEFT OUTER (resp. right of a RIGHT
  * OUTER) join when
  *
  *  - every skyline dimension only references that side,
  *  - the dimensions are deterministic, and
  *  - the skyline is not DISTINCT (pushing a DISTINCT skyline would change
  *    the duplicate count when a kept tuple has several join partners).
  *
  * An intervening Project (the SELECT list) is traversed by substituting its
  * aliases into the dimension expressions. Like any optimizer rule it can
  * be switched off with
  * `spark.sql.optimizer.excludedRules=repro.core.rules.SkylinePushThroughJoin`.
  */
object SkylinePushThroughJoin extends Rule[LogicalPlan] with AliasHelper {

  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformUp {
    case sky @ SkylineOperator(false, _, dims, join: Join) =>
      tryPush(sky, dims, join).map(join.withNewChildren).getOrElse(sky)

    case sky @ SkylineOperator(false, _, dims, p @ Project(plist, join: Join))
        if plist.forall(_.deterministic) =>
      // Rewrite dimensions through the projection's aliases, then push.
      val aliases = getAliasMap(p)
      val substituted = dims.map(replaceAlias(_, aliases).asInstanceOf[SkylineDimension])
      tryPush(sky, substituted, join)
        .map(children => p.copy(child = join.withNewChildren(children)))
        .getOrElse(sky)
  }

  /** If pushable, return the join's new children (skyline wrapped around the
    * preserved side).
    */
  private def tryPush(
      sky: SkylineOperator,
      dims: Seq[SkylineDimension],
      join: Join): Option[Seq[LogicalPlan]] = {
    if (!dims.forall(_.deterministic)) return None
    val refs = dims.map(_.references).reduce(_ ++ _)
    join.joinType match {
      case LeftOuter if refs.subsetOf(join.left.outputSet) =>
        Some(Seq(sky.copy(dimensions = dims, child = join.left), join.right))
      case RightOuter if refs.subsetOf(join.right.outputSet) =>
        Some(Seq(join.left, sky.copy(dimensions = dims, child = join.right)))
      case _ => None
    }
  }
}
