package repro.core.parser

import org.apache.spark.sql.{AnalysisException, Row}
import repro.SparkSpec
import repro.core.Direction
import repro.core.Direction.{Max, Min}
import repro.core.TestUtil.assertSameRows
import repro.reference.BruteForce

/** SKYLINE OF at every query level (the paper's `skylineClause` sits in
  * the query specification): each skyline applies to the SELECT it follows,
  * checked against the brute-force oracle.
  */
class SkylineQueryLevelSpec extends SparkSpec {

  /** (id, a, b, c) on small domains, so skylines have several rows and ties. */
  private lazy val rows: Seq[Row] = {
    val rnd = new scala.util.Random(42)
    (0 until 80).map(id => Row(id, rnd.nextInt(10), rnd.nextInt(10), rnd.nextInt(10)))
  }
  private lazy val uRows = rows.filter(_.getInt(0) % 3 != 0)

  private lazy val setup: Unit = {
    import spark.implicits._
    def view(rs: Seq[Row], name: String): Unit =
      rs.map(r => (r.getInt(0), r.getInt(1), r.getInt(2), r.getInt(3)))
        .toDF("id", "a", "b", "c").createOrReplaceTempView(name)
    view(rows, "lvl_t")
    view(uRows, "lvl_u")
  }

  private val Cols = Map("id" -> 0, "a" -> 1, "b" -> 2, "c" -> 3)

  private def sky(rs: Seq[Row], dims: (String, Direction)*): Seq[Row] =
    BruteForce.skyline(rs, dims.map { case (n, d) => Cols(n) -> d }, incomplete = false)

  /** One row (0, a, max(b), sum(c)) per value of a, in the layout `sky` reads. */
  private def groupedByA: Seq[Row] = rows.groupBy(_.getInt(1)).toSeq.map { case (a, g) =>
    Row(0, a, g.map(_.getInt(2)).max, g.map(_.getInt(3)).sum)
  }

  private def ab(rs: Seq[Row]): Seq[Row] = rs.map(r => Row(r.getInt(1), r.getInt(2))).distinct

  private def check(sql: String, expected: Seq[Row]): Unit = {
    setup
    assert(expected.nonEmpty)
    assertSameRows(spark.sql(sql).collect().toSeq, expected, sql)
  }

  test("skyline in an IN (SELECT ...) subquery") {
    val front = ab(sky(rows, "a" -> Min, "b" -> Max)).toSet
    check(
      "SELECT * FROM lvl_t WHERE (a, b) IN (SELECT a, b FROM lvl_t SKYLINE OF a MIN, b MAX)",
      rows.filter(r => front(Row(r.getInt(1), r.getInt(2)))))
  }

  test("a dimension missing from a subquery's SELECT list resolves inside the subquery") {
    val front = sky(rows, "a" -> Min, "b" -> Min).map(_.getInt(1)).toSet
    check("SELECT * FROM lvl_t WHERE a IN (SELECT a FROM lvl_t SKYLINE OF a MIN, b MIN)",
      rows.filter(r => front(r.getInt(1))))
  }

  test("with an aliased outer table, missing dimensions resolve inside the subquery") {
    val front = sky(uRows, "b" -> Min, "c" -> Max).map(_.getInt(1)).toSet
    check("SELECT * FROM lvl_t o WHERE o.a IN (SELECT a FROM lvl_u SKYLINE OF b MIN, c MAX)",
      rows.filter(r => front(r.getInt(1))))
  }

  test("an expression dimension over columns missing from a subquery's SELECT list") {
    val withDiff = rows.map(r => Row(r.getInt(0), r.getInt(1), math.abs(r.getInt(2) - r.getInt(3))))
    val front = BruteForce.skyline(withDiff, Seq(1 -> Min, 2 -> Min), incomplete = false)
      .map(_.getInt(1)).toSet
    check("SELECT * FROM lvl_t WHERE a IN (SELECT a FROM lvl_t SKYLINE OF a MIN, abs(b - c) MIN)",
      rows.filter(r => front(r.getInt(1))))
  }

  test("an aggregate over a column missing from a GROUP BY subquery's output") {
    val front = sky(groupedByA, "a" -> Min, "b" -> Max).map(_.getInt(1)).toSet
    check(
      "SELECT * FROM lvl_t WHERE a IN (SELECT a FROM lvl_t GROUP BY a SKYLINE OF a MIN, max(b) MAX)",
      rows.filter(r => front(r.getInt(1))))
  }

  test("a sum over a column missing from a GROUP BY subquery's output") {
    val front = sky(groupedByA, "a" -> Min, "c" -> Min).map(_.getInt(1)).toSet
    check(
      "SELECT * FROM lvl_t WHERE a IN (SELECT a FROM lvl_t GROUP BY a SKYLINE OF a MIN, sum(c) MIN)",
      rows.filter(r => front(r.getInt(1))))
  }

  test("a column neither grouped nor aggregated in a GROUP BY subquery fails at analysis") {
    setup
    intercept[AnalysisException] {
      spark.sql("SELECT * FROM lvl_t WHERE a IN (SELECT a FROM lvl_t GROUP BY a SKYLINE OF b MIN)")
        .collect()
    }
  }

  test("a dimension that names the outer query fails loudly") {
    setup
    val e = intercept[AnalysisException] {
      spark.sql("SELECT * FROM lvl_t o WHERE o.a IN (SELECT a FROM lvl_u SKYLINE OF o.b MIN, c MAX)")
        .collect()
    }
    assert(e.getMessage.contains("referencing the outer query") && e.getMessage.contains("o.b"),
      e.getMessage)
  }

  test("skyline in a CTE body, filtered by the outer query") {
    check(
      """WITH s AS (SELECT * FROM lvl_t SKYLINE OF a MIN, b MAX)
        |SELECT * FROM s WHERE c >= 3""".stripMargin,
      sky(rows, "a" -> Min, "b" -> Max).filter(_.getInt(3) >= 3))
  }

  test("skyline on each term of UNION ALL") {
    check(
      """SELECT * FROM lvl_t SKYLINE OF a MIN, b MAX
        |UNION ALL
        |SELECT * FROM lvl_u SKYLINE OF a MAX, c MIN""".stripMargin,
      sky(rows, "a" -> Min, "b" -> Max) ++ sky(uRows, "a" -> Max, "c" -> Min))
  }

  test("skyline on each term of INTERSECT") {
    val right = ab(sky(uRows, "a" -> Min, "b" -> Max)).toSet
    check(
      """SELECT a, b FROM lvl_t SKYLINE OF a MIN, b MAX
        |INTERSECT
        |SELECT a, b FROM lvl_u SKYLINE OF a MIN, b MAX""".stripMargin,
      ab(sky(rows, "a" -> Min, "b" -> Max)).filter(right))
  }

  test("skyline on each term of EXCEPT") {
    val right = ab(sky(uRows, "a" -> Max, "b" -> Min)).toSet
    check(
      """SELECT a, b FROM lvl_t SKYLINE OF a MIN, b MAX
        |EXCEPT
        |SELECT a, b FROM lvl_u SKYLINE OF a MAX, b MIN""".stripMargin,
      ab(sky(rows, "a" -> Min, "b" -> Max)).filterNot(right))
  }
}
