package repro.core.parser

import org.apache.spark.sql.catalyst.plans.logical.{GlobalLimit, LogicalPlan, Sort}
import repro.SparkSpec
import repro.core.{Direction, SkylineOperator}

/** Plan-shape tests for the injected parser (§5.1–5.2). */
class SkylineSqlParserSpec extends SparkSpec {

  private def parse(sql: String): LogicalPlan =
    spark.sessionState.sqlParser.parsePlan(sql)

  private def skylineNodes(plan: LogicalPlan): Seq[SkylineOperator] =
    plan.collect { case s: SkylineOperator => s }

  test("skyline query produces exactly one SkylineOperator node") {
    val plan = parse("SELECT * FROM t SKYLINE OF a MIN, b MAX")
    val nodes = skylineNodes(plan)
    assert(nodes.size == 1)
    assert(nodes.head.dimensions.map(_.direction) == Seq(Direction.Min, Direction.Max))
    assert(!nodes.head.distinct && !nodes.head.complete)
  }

  test("skyline node has a single child (unary, §5.2)") {
    val plan = parse("SELECT * FROM t SKYLINE OF a MIN")
    assert(skylineNodes(plan).head.children.size == 1)
  }

  test("DISTINCT and COMPLETE flags reach the logical node") {
    val s = skylineNodes(parse("SELECT * FROM t SKYLINE OF DISTINCT COMPLETE a MIN")).head
    assert(s.distinct && s.complete)
  }

  test("ORDER BY stays above the skyline node") {
    val plan = parse("SELECT * FROM t SKYLINE OF a MIN ORDER BY b")
    assert(plan.isInstanceOf[Sort])
    assert(skylineNodes(plan.asInstanceOf[Sort].child).nonEmpty)
  }

  test("LIMIT stays above the skyline node") {
    val plan = parse("SELECT * FROM t SKYLINE OF a MIN LIMIT 3")
    assert(plan.isInstanceOf[GlobalLimit])
    assert(skylineNodes(plan).size == 1)
  }

  test("ORDER BY + LIMIT both stay above the skyline node") {
    val plan = parse("SELECT * FROM t SKYLINE OF a MIN ORDER BY b LIMIT 3")
    val sorts = plan.collect { case s: Sort => s }
    assert(sorts.nonEmpty)
    assert(skylineNodes(sorts.head.child).nonEmpty)
  }

  test("WITH clause: skyline lands inside the CTE body") {
    val plan = parse("WITH c AS (SELECT 1 AS a) SELECT * FROM c SKYLINE OF a MIN")
    assert(skylineNodes(plan).size == 1)
  }

  test("plain queries produce no skyline node") {
    assert(skylineNodes(parse("SELECT a, b FROM t WHERE a > 1")).isEmpty)
  }

  test("dimension expressions are parsed by Spark's expression parser") {
    val s = skylineNodes(parse("SELECT * FROM t SKYLINE OF a + b MIN, abs(c) MAX")).head
    assert(s.dimensions.size == 2)
    // a + b parses to an Add expression, abs(c) to a function invocation
    assert(s.dimensions.head.child.toString.toLowerCase.contains("+"))
  }

  test("parse errors in the remaining SQL still surface") {
    intercept[Exception] { parse("SELEKT * FROM t SKYLINE OF a MIN") }
  }

  test("malformed skyline clause raises a helpful error") {
    val e = intercept[SkylineParseException] {
      parse("SELECT * FROM t SKYLINE OF a")
    }
    assert(e.getMessage.contains("MIN, MAX or DIFF"))
  }

  test("parseExpression is delegated untouched") {
    val e = spark.sessionState.sqlParser.parseExpression("a + 1")
    assert(e.toString.contains("+"))
  }

  test("parseTableIdentifier is delegated untouched") {
    val id = spark.sessionState.sqlParser.parseTableIdentifier("db.tbl")
    assert(id.table == "tbl")
  }

  test("GROUP BY query with skyline keeps aggregate structure") {
    val plan = parse(
      "SELECT k, sum(v) AS s FROM t GROUP BY k SKYLINE OF s MIN")
    val nodes = skylineNodes(plan)
    assert(nodes.size == 1)
    assert(nodes.head.child.collectFirst {
      case a: org.apache.spark.sql.catalyst.plans.logical.Aggregate => a
    }.nonEmpty)
  }

  test("raw string literal with a trailing backslash runs end to end") {
    import spark.implicits._
    Seq(2, 1, 3).toDF("x").createOrReplaceTempView("raw_t")
    val rows = spark.sql("SELECT r'C:\\' AS p, x FROM raw_t SKYLINE OF x MIN").collect()
    assert(rows.map(r => (r.getString(0), r.getInt(1))).toSeq == Seq(("C:\\", 1)))
  }

  test("statement ending with a semicolon after the clause runs end to end") {
    import spark.implicits._
    Seq((2, 1), (1, 2), (3, 3)).toDF("a", "b").createOrReplaceTempView("semi_t")
    val rows = spark.sql("SELECT * FROM semi_t SKYLINE OF a MIN, b MIN;").collect()
    assert(rows.map(r => (r.getInt(0), r.getInt(1))).toSet == Set((2, 1), (1, 2)))
  }

  test("unmatched parenthesis before the clause gets Spark's syntax error") {
    intercept[org.apache.spark.sql.catalyst.parser.ParseException] {
      parse("SELECT a) FROM t SKYLINE OF x MIN")
    }
  }
}
