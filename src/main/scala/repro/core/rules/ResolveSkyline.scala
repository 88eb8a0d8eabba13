package repro.core.rules

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.analysis.{AnalysisErrorAt, UnresolvedAttribute}
import org.apache.spark.sql.catalyst.expressions.{Alias, Attribute, Expression, NamedExpression, OuterReference}
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Filter, LogicalPlan, Project}
import org.apache.spark.sql.catalyst.rules.Rule
import repro.core.{SkylineDimension, SkylineOperator}

/** Analyzer extension for skyline queries (§5.3, Listings 6 and 7).
  *
  * Most skyline dimensions are plain expressions over the child's output and
  * are resolved by Spark's generic expression resolution — the reuse the
  * paper highlights. This rule covers the two cases that need node-specific
  * help:
  *
  *  1. **Dimensions missing from the projection** (Listing 6):
  *     `SELECT price FROM hotels SKYLINE OF price MIN, rating MAX` — `rating`
  *     is not in the child Project. The missing attributes are appended to
  *     the projection, the skyline is computed over the widened child, and a
  *     final Project restores the original output.
  *
  *     In a subquery Spark binds such a dimension to a column of the outer
  *     query before this rule runs; the dimension is then resolved again
  *     from its parsed expression ([[SkylineDimension.Parsed]]) against the
  *     projection and its child first, like Spark's own Sort does. A
  *     dimension that still names the outer query is rejected: Spark cannot
  *     decorrelate a skyline.
  *
  *  2. **Aggregate dimensions** (Listing 7):
  *     `SELECT cat, sum(price) AS s FROM t GROUP BY cat SKYLINE OF count(*) MAX`
  *     — the aggregate the skyline needs is not produced by the child
  *     Aggregate. The dimension expression is injected into the Aggregate's
  *     aggregate list under a fresh internal alias, the dimension is rewired
  *     to that alias, and a final Project drops the helper column. A HAVING
  *     clause (a Filter between skyline and Aggregate) is preserved.
  *
  * Installed via `injectResolutionRule`, so it iterates to fixed point with
  * the built-in resolution rules.
  */
case class ResolveSkyline(session: SparkSession) extends Rule[LogicalPlan] {

  override def apply(plan: LogicalPlan): LogicalPlan = plan.resolveOperatorsUp {
    case sky: SkylineOperator if sky.childrenResolved && needsRewrite(sky) =>
      sky.child match {
        case agg: Aggregate =>
          rewriteAggregate(sky, agg, (newAgg, _) => newAgg)
        case f @ Filter(_, agg: Aggregate) =>
          rewriteAggregate(sky, agg, (newAgg, _) => f.copy(child = newAgg))
        // HAVING resolution wraps the Filter in a Project that drops helper
        // aggregates; widen that Project so our helpers pass through.
        case p @ Project(_, f @ Filter(_, agg: Aggregate)) =>
          rewriteAggregate(sky, agg, (newAgg, helpers) =>
            p.copy(projectList = p.projectList ++ helpers,
              child = f.copy(child = newAgg)))
        case p @ Project(_, agg: Aggregate) if needsAggregateHelp(sky) =>
          rewriteAggregate(sky, agg, (newAgg, helpers) =>
            p.copy(projectList = p.projectList ++ helpers, child = newAgg))
        case p: Project =>
          rewriteProject(sky, p)
        case _ => sky
      }
  }

  /** Unresolved dimensions need help; so do dimensions holding a bare
    * aggregate function (e.g. `SKYLINE OF count(1) MAX` — fully resolved as
    * an expression, yet only evaluable inside the child Aggregate).
    */
  private def needsRewrite(sky: SkylineOperator): Boolean =
    !sky.resolved || sky.dimensions.exists(d => containsAggregate(d) || containsOuter(d))

  private def containsOuter(dim: SkylineDimension): Boolean =
    dim.child.exists(_.isInstanceOf[OuterReference])

  private def containsAggregate(dim: SkylineDimension): Boolean =
    dim.child.exists(_.isInstanceOf[
      org.apache.spark.sql.catalyst.expressions.aggregate.AggregateExpression])

  /** True when some dimension needs the aggregate-injection treatment (as
    * opposed to plain missing-projection handling).
    */
  private def needsAggregateHelp(sky: SkylineOperator): Boolean =
    sky.dimensions.exists(d => containsAggregate(d) ||
      d.child.exists(_.isInstanceOf[org.apache.spark.sql.catalyst.analysis.UnresolvedFunction]))

  /** An expression usable inside a dimension from a `plan.resolve` result. */
  private def stripAlias(ne: NamedExpression): Expression = ne match {
    case a: Alias => a.child
    case other    => other
  }

  /** Resolve the unresolved attributes of `expr` against `plans`, first
    * match wins.
    */
  private def resolveAgainst(expr: Expression, plans: Seq[LogicalPlan]): Expression =
    expr.transformUp { case u: UnresolvedAttribute =>
      plans.view
        .flatMap(_.resolve(u.nameParts, conf.resolver))
        .headOption
        .map(stripAlias)
        .getOrElse(u)
    }

  /** Listing 6: allow dimensions not present in the projection. */
  private def rewriteProject(sky: SkylineOperator, p: Project): LogicalPlan = {
    val newDims = sky.dimensions.map { dim =>
      if (!dim.child.resolved) dim.copy(child = resolveAgainst(dim.child, Seq(p, p.child)))
      else if (containsOuter(dim)) resolveInnerFirst(dim, p)
      else dim
    }
    failOnOuter(sky, newDims)
    // Attributes the dimensions need that the projection does not provide.
    val missing: Seq[Attribute] = newDims
      .flatMap(_.child.collect {
        case a: Attribute if !p.outputSet.contains(a) && p.child.outputSet.contains(a) => a
      })
      .distinct
    if (missing.isEmpty) {
      if (newDims == sky.dimensions) sky else sky.copy(dimensions = newDims)
    } else {
      val widened = p.copy(projectList = p.projectList ++ missing)
      Project(p.output, sky.copy(dimensions = newDims, child = widened))
    }
  }

  /** A dimension Spark bound to the outer query, resolved again from its
    * parsed expression against `p` and its child; unchanged unless that
    * resolves every column it names.
    */
  private def resolveInnerFirst(dim: SkylineDimension, p: Project): SkylineDimension =
    dim.getTagValue(SkylineDimension.Parsed)
      .map(resolveAgainst(_, Seq(p, p.child)))
      .filterNot(_.exists(_.isInstanceOf[UnresolvedAttribute]))
      .fold(dim)(e => dim.copy(child = e))

  private def failOnOuter(sky: SkylineOperator, dims: Seq[SkylineDimension]): Unit = {
    val outer = dims.filter(containsOuter)
    if (outer.nonEmpty) sky.failAnalysis(
      errorClass = "UNSUPPORTED_SUBQUERY_EXPRESSION_CATEGORY.CORRELATED_REFERENCE",
      messageParameters = Map("sqlExprs" -> outer.map(_.sql).mkString(", ")))
  }

  /** Listing 7: propagate aggregate dimensions into the child Aggregate. */
  private def rewriteAggregate(
      sky: SkylineOperator,
      agg: Aggregate,
      rebuild: (Aggregate, Seq[NamedExpression]) => LogicalPlan): LogicalPlan = {
    // First give each unresolved dimension a chance to resolve against the
    // aggregate output (covers helper aliases injected on an earlier pass).
    val attempted = sky.dimensions.map { dim =>
      if (dim.child.resolved) dim
      else dim.copy(child = resolveAgainst(dim.child, Seq(sky.child)))
    }
    failOnOuter(sky, attempted)
    val pending = attempted.zipWithIndex.filter { case (dim, _) =>
      !dim.child.resolved || containsAggregate(dim)
    }
    if (pending.isEmpty) {
      if (attempted == sky.dimensions) sky else sky.copy(dimensions = attempted)
    } else {
      // Inject each pending dimension expression into the aggregate under a
      // fresh, collision-free alias; the analyzer resolves it there (adding
      // "missing aggregates", grouping checks, error reporting) on the next
      // fixed-point iteration.
      val aliases = pending.map { case (dim, _) =>
        val id = NamedExpression.newExprId
        Alias(dim.child, s"_skyline_dim_${id.id}")(exprId = id)
      }
      val rewired = attempted.toArray
      pending.zip(aliases).foreach { case ((dim, i), alias) =>
        rewired(i) = dim.copy(child = alias.toAttribute)
      }
      val widened = agg.copy(aggregateExpressions = agg.aggregateExpressions ++ aliases)
      val helperRefs = aliases.map(_.toAttribute)
      Project(
        sky.child.output,
        sky.copy(dimensions = rewired.toSeq, child = rebuild(widened, helperRefs)))
    }
  }
}
