package repro.core

import org.apache.spark.sql.{Column, DataFrame, Dataset}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.catalyst.parser.skyline.Bridge

/** DataFrame API for skyline queries (§5.8).
  *
  * {{{
  *   import repro.core.api._
  *   hotels.skyline(smin($"price"), smax($"rating"))
  *   hotels.skylineComplete(smin("price"), smax("rating"))
  * }}}
  *
  * As in the paper, the API bypasses the parser and creates the
  * [[SkylineOperator]] logical node directly; analysis, optimization and
  * physical planning are shared with the SQL path.
  */
object api {

  /** A skyline dimension in columnar form: the paper's smin()/smax()/sdiff(). */
  final case class SkylineColumn(col: Column, direction: Direction)

  def smin(c: Column): SkylineColumn = SkylineColumn(c, Direction.Min)
  def smax(c: Column): SkylineColumn = SkylineColumn(c, Direction.Max)
  def sdiff(c: Column): SkylineColumn = SkylineColumn(c, Direction.Diff)

  def smin(name: String): SkylineColumn = smin(col(name))
  def smax(name: String): SkylineColumn = smax(col(name))
  def sdiff(name: String): SkylineColumn = sdiff(col(name))

  implicit class SkylineDataFrameOps(private val df: Dataset[_]) extends AnyVal {

    /** Skyline of this DataFrame over the given dimensions. */
    def skyline(dims: SkylineColumn*): DataFrame =
      skylineOf(distinct = false, complete = false, dims)

    /** SKYLINE OF DISTINCT ... */
    def skylineDistinct(dims: SkylineColumn*): DataFrame =
      skylineOf(distinct = true, complete = false, dims)

    /** SKYLINE OF COMPLETE ... — asserts the dimensions contain no nulls. */
    def skylineComplete(dims: SkylineColumn*): DataFrame =
      skylineOf(distinct = false, complete = true, dims)

    /** SKYLINE OF DISTINCT COMPLETE ... */
    def skylineDistinctComplete(dims: SkylineColumn*): DataFrame =
      skylineOf(distinct = true, complete = true, dims)

    /** Fully explicit variant; also the entry point language bindings call. */
    def skylineOf(distinct: Boolean, complete: Boolean, dims: Seq[SkylineColumn]): DataFrame = {
      val dimensions = dims.map(d =>
        SkylineDimension(Bridge.expression(df.sparkSession, d.col), d.direction))
      // Build over the *analyzed* child plan: columns obtained via df("c")
      // reference the analyzed plan's attribute ids, and re-analyzing the
      // child must not mint fresh ones.
      Bridge.ofRows(
        df.sparkSession,
        SkylineOperator(distinct, complete, dimensions, df.queryExecution.analyzed))
    }
  }
}
