package repro.core

import org.apache.spark.sql.catalyst.analysis.TypeCheckResult
import org.apache.spark.sql.catalyst.expressions.{Expression, UnaryExpression, Unevaluable}
import org.apache.spark.sql.catalyst.trees.TreeNodeTag
import org.apache.spark.sql.catalyst.util.TypeUtils
import org.apache.spark.sql.types.DataType

/** A single skyline dimension: an arbitrary expression over the child
  * relation plus its optimization direction (MIN/MAX/DIFF).
  *
  * Mirrors the paper's `SkylineDimension` (§5.2): it extends Spark's
  * [[Expression]] so that the dimension's child expression is resolved by the
  * analyzer's generic expression-resolution machinery — exactly the reuse
  * argument the paper makes. It is never evaluated itself; the physical
  * operators bind and evaluate `child` directly.
  */
case class SkylineDimension(child: Expression, direction: Direction)
    extends UnaryExpression
    with Unevaluable {

  override def dataType: DataType = child.dataType

  override def nullable: Boolean = child.nullable

  /** A type ORDER BY rejects fails analysis here too. */
  override def checkInputDataTypes(): TypeCheckResult =
    TypeUtils.checkForOrderingExpr(child.dataType, prettyName)

  override def sql: String = s"${child.sql} ${direction.sql}"

  override def toString: String = s"$child ${direction.sql}"

  override protected def withNewChildInternal(newChild: Expression): SkylineDimension =
    copy(child = newChild)
}

object SkylineDimension {

  /** The dimension's expression as the parser produced it, before any
    * resolution. Tags survive `withNewChildren`, so the analyzer can resolve
    * a dimension again after Spark bound it to an outer query.
    */
  val Parsed: TreeNodeTag[Expression] = TreeNodeTag[Expression]("skyline.parsedDimension")
}
