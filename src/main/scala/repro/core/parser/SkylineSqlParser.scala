package repro.core.parser

import java.util.Locale
import org.apache.spark.sql.catalyst.{FunctionIdentifier, TableIdentifier}
import org.apache.spark.sql.catalyst.expressions.{Expression, Literal}
import org.apache.spark.sql.catalyst.parser.{ParameterContext, ParserInterface}
import org.apache.spark.sql.catalyst.plans.logical._
import org.apache.spark.sql.types.{DataType, StructType}
import repro.core.{Direction, SkylineDimension, SkylineOperator}

/** Spark SQL parser with skyline support (§5.1).
  *
  * Wraps the session's default parser: queries without the word SKYLINE go
  * straight through. For the others, [[SkylineClauseExtractor]] moves each
  * clause into a `SKYLINE_OF` hint of its SELECT, so the delegate's grammar
  * places it where the paper's grammar does: after HAVING, below ORDER BY /
  * LIMIT / OFFSET, at every query level. Each such hint of the parsed plan,
  * also one in a stored view's text, then becomes a [[SkylineOperator]].
  *
  * Installed via `SparkSessionExtensions.injectParser` (see
  * [[repro.core.SkylineExtensions]]).
  */
class SkylineSqlParser(delegate: ParserInterface) extends ParserInterface {

  override def parsePlan(sqlText: String): LogicalPlan = rewrite(sqlText, delegate.parsePlan)

  override def parseQuery(sqlText: String): LogicalPlan = rewrite(sqlText, delegate.parseQuery)

  /** `SparkSession.sql(text, args)`: the delegate binds the parameters. */
  override def parsePlanWithParameters(sqlText: String, params: ParameterContext): LogicalPlan =
    rewrite(sqlText, delegate.parsePlanWithParameters(_, params))

  private def rewrite(sqlText: String, parse: String => LogicalPlan): LogicalPlan =
    if (!sqlText.toUpperCase(Locale.ROOT).contains("SKYLINE")) parse(sqlText)
    else toSkyline(parse(SkylineClauseExtractor.toHints(sqlText)))

  /** Every skyline hint as a SkylineOperator, also in subqueries, in CTE
    * bodies (inner children) and in the query an EXPLAIN supervises.
    */
  private def toSkyline(plan: LogicalPlan): LogicalPlan = plan match {
    case c: SupervisingCommand => c.withTransformedSupervisedPlan(toSkyline)
    case _ => plan.transformUpWithSubqueries {
      case w: UnresolvedWith =>
        w.copy(cteRelations = w.cteRelations.map { case (name, body, depth) =>
          (name, body.copy(child = toSkyline(body.child)), depth)
        })
      case UnresolvedHint(SkylineClauseExtractor.HintName,
          Literal(distinct: Boolean, _) +: Literal(complete: Boolean, _) +: dims, child) =>
        val dimensions = dims.grouped(2).map { case Seq(Literal(dir, _), e) =>
          val dim = SkylineDimension(e, Direction.fromString(dir.toString).get)
          dim.setTagValue(SkylineDimension.Parsed, e)
          dim
        }
        SkylineOperator(distinct, complete, dimensions.toSeq, child)
    }
  }

  // ---- everything else is delegated unchanged --------------------------

  override def parseExpression(sqlText: String): Expression =
    delegate.parseExpression(sqlText)

  override def parseTableIdentifier(sqlText: String): TableIdentifier =
    delegate.parseTableIdentifier(sqlText)

  override def parseFunctionIdentifier(sqlText: String): FunctionIdentifier =
    delegate.parseFunctionIdentifier(sqlText)

  override def parseMultipartIdentifier(sqlText: String): Seq[String] =
    delegate.parseMultipartIdentifier(sqlText)

  override def parseTableSchema(sqlText: String): StructType =
    delegate.parseTableSchema(sqlText)

  override def parseDataType(sqlText: String): DataType =
    delegate.parseDataType(sqlText)

  override def parseRoutineParam(sqlText: String): StructType =
    delegate.parseRoutineParam(sqlText)
}
