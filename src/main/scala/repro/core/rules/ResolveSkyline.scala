package repro.core.rules

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.analysis.{AnalysisErrorAt, ColumnResolutionHelper, TempResolvedColumn, UnresolvedAttribute}
import org.apache.spark.sql.catalyst.expressions.{AttributeSet, Expression, OuterReference}
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Filter, LogicalPlan, Project}
import org.apache.spark.sql.catalyst.rules.Rule
import repro.core.{SkylineDimension, SkylineOperator}

/** Analyzer extension for skyline queries (§5.3, Listings 6 and 7).
  *
  * As in the paper, the skyline resolves its dimensions with the helpers
  * Spark's analyzer already uses for Sort, Filter and HAVING:
  *
  *  1. **Dimensions missing from the projection** (Listing 6):
  *     `SELECT price FROM hotels SKYLINE OF price MIN, rating MAX`.
  *     `resolveExprsAndAddMissingAttrs`, Spark's helper for Sort and Filter,
  *     resolves `rating` below the Project and adds it there; a final Project
  *     restores the original output.
  *  2. **Aggregate dimensions** (Listing 7):
  *     `SELECT cat FROM t GROUP BY cat SKYLINE OF count(1) MAX`. Under an
  *     Aggregate (directly or below HAVING's Filter and Project), columns
  *     resolve against its input as in HAVING (`resolveColWithAgg`), and
  *     `ResolveAggregateFunctions.resolveExprsWithAggregate`, Spark's HAVING
  *     and ORDER BY machinery, reuses the aggregates the query computes and
  *     returns the ones to add. The Aggregate and the Projects above it are
  *     widened by what the dimensions use; a final Project drops it again.
  *
  * In a subquery Spark binds a dimension missing from the SELECT list to the
  * outer query before this rule runs. Such a dimension starts again from its
  * parsed expression ([[SkylineDimension.Parsed]]); if the subquery cannot
  * resolve it either, it names the outer query and is rejected, since Spark
  * cannot decorrelate a skyline.
  *
  * Installed via `injectResolutionRule`, so it iterates to fixed point with
  * the built-in resolution rules.
  */
case class ResolveSkyline(session: SparkSession)
    extends Rule[LogicalPlan] with ColumnResolutionHelper {

  override def catalogManager = session.sessionState.catalogManager

  override def apply(plan: LogicalPlan): LogicalPlan = plan.resolveOperatorsUp {
    case sky: SkylineOperator if sky.childrenResolved =>
      val (dims, child) = resolveExprsAndAddMissingAttrs(sky.dimensions.map(restart), sky.child)
      val (newDims, newChild) =
        aggregateUnder(child).fold((dims, child))(addAggregates(dims, child, _))
      val outer = sky.dimensions.zip(newDims).collect {
        case (dim, e) if isOuter(dim) && unplaced(e) => dim
      }
      if (outer.nonEmpty) sky.failAnalysis(
        errorClass = "UNSUPPORTED_SUBQUERY_EXPRESSION_CATEGORY.CORRELATED_REFERENCE",
        messageParameters = Map("sqlExprs" -> outer.map(_.sql).mkString(", ")))
      val newSky =
        sky.copy(dimensions = newDims.map(_.asInstanceOf[SkylineDimension]), child = newChild)
      if (newChild.output == sky.child.output) newSky else Project(sky.child.output, newSky)
  }

  private def isOuter(dim: SkylineDimension): Boolean = dim.exists(_.isInstanceOf[OuterReference])

  /** A column the subquery cannot provide: unknown, or under GROUP BY
    * neither grouped nor aggregated.
    */
  private def unplaced(e: Expression): Boolean = e.exists {
    case t: TempResolvedColumn => t.hasTried
    case other => other.isInstanceOf[UnresolvedAttribute]
  }

  /** A dimension Spark bound to the outer query, back in its parsed form. */
  private def restart(dim: SkylineDimension): SkylineDimension =
    dim.getTagValue(SkylineDimension.Parsed) match {
      case Some(parsed) if isOuter(dim) => dim.copy(child = parsed)
      case _ => dim
    }

  private def aggregateUnder(plan: LogicalPlan): Option[Aggregate] = plan match {
    case agg: Aggregate => Some(agg)
    case Filter(_, child) => aggregateUnder(child)
    case Project(_, child) => aggregateUnder(child)
    case _ => None
  }

  /** Listing 7: the dimensions over `agg`'s input and aggregates, with `agg`
    * and the Projects between it and the skyline widened to provide them.
    */
  private def addAggregates(
      dims: Seq[Expression],
      child: LogicalPlan,
      agg: Aggregate): (Seq[Expression], LogicalPlan) = {
    val (added, newDims) = session.sessionState.analyzer.ResolveAggregateFunctions
      .resolveExprsWithAggregate(dims.map(resolveColWithAgg(_, agg)), agg)
    val newAgg = agg.copy(aggregateExpressions = agg.aggregateExpressions ++ added)
    val missing =
      (AttributeSet(newDims.flatMap(_.references)) -- child.outputSet).intersect(newAgg.outputSet)
    def widen(plan: LogicalPlan): LogicalPlan = plan match {
      case p: Project => p.copy(projectList = p.projectList ++ missing, child = widen(p.child))
      case f: Filter => f.copy(child = widen(f.child))
      case _ => newAgg
    }
    (newDims, if (missing.isEmpty) child else widen(child))
  }
}
