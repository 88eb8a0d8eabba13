package org.apache.spark.sql.catalyst.parser.skyline

import org.antlr.v4.runtime.CharStreams
import org.apache.spark.sql.{Column, DataFrame, SparkSession, classic}
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.parser.{SqlBaseLexer, UpperCaseCharStream}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan

/** Access to the non-public Spark seams the parser and the DataFrame API
  * need: `private[sql]` plan/column conversions and the `private[parser]`
  * character stream Spark's own lexer reads.
  *
  * In the paper the skyline code lives inside the Spark source tree and uses
  * these directly; building against stock Spark, this one-file shim inside
  * the `org.apache.spark.sql.catalyst.parser` namespace provides the same
  * access (the standard technique used by Spark connector libraries).
  */
object Bridge {

  /** Spark's SQL lexer over `sql`, built as Spark's parser builds it
    * (keywords match case-insensitively) but with no error listeners:
    * characters it cannot lex are left for Spark's parser to report.
    */
  def lexer(sql: String): SqlBaseLexer = {
    val lexer = new SqlBaseLexer(new UpperCaseCharStream(CharStreams.fromString(sql)))
    lexer.removeErrorListeners()
    lexer
  }

  /** Wrap a logical plan as a DataFrame (`Dataset.ofRows`). */
  def ofRows(session: SparkSession, plan: LogicalPlan): DataFrame =
    classic.Dataset.ofRows(session.asInstanceOf[classic.SparkSession], plan)

  /** Wrap a Catalyst expression back into a public [[Column]]. */
  def column(e: Expression): Column = classic.ExpressionUtils.column(e)

  /** Mark a column non-nullable (AssertNotNull) — used by data generators to
    * produce "complete" schemas the planner can trust (§5.5 relies on
    * nullability for algorithm selection).
    */
  def assertNotNull(session: SparkSession, col: Column): Column =
    column(org.apache.spark.sql.catalyst.expressions.objects.AssertNotNull(
      expression(session, col)))

  /** The Catalyst expression behind a public [[Column]], converted through
    * the session's column-node converter (a bare `ExpressionUtils.expression`
    * yields a lazy `ColumnNodeExpression` placeholder that custom logical
    * nodes cannot resolve).
    */
  def expression(session: SparkSession, col: Column): Expression =
    session.asInstanceOf[classic.SparkSession].expression(col)
}
