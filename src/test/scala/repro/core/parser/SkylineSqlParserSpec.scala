package repro.core.parser

import java.util.Locale
import org.apache.spark.sql.DataFrame
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

  test("lowercase keywords parse the same under a Turkish default locale") {
    val upper = skylineNodes(parse("SELECT * FROM t SKYLINE OF DISTINCT a MIN, b MAX"))
    val default = Locale.getDefault
    Locale.setDefault(Locale.forLanguageTag("tr-TR"))
    try {
      // The default-locale "min".toUpperCase is "MİN" here.
      val lower = skylineNodes(parse("select * from t skyline of distinct a min, b max"))
      assert(upper.nonEmpty && lower == upper)
    } finally Locale.setDefault(default)
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

  test("a clause before UNION ALL applies to its own term only") {
    import spark.implicits._
    Seq((1, 1), (2, 2)).toDF("a", "b").createOrReplaceTempView("pt")
    Seq((0, 0), (5, 5)).toDF("a", "b").createOrReplaceTempView("pu")
    val rows = spark.sql(
      "SELECT a, b FROM pt SKYLINE OF a MIN UNION ALL SELECT a, b FROM pu").collect()
    assert(rows.map(r => (r.getInt(0), r.getInt(1))).toSet == Set((1, 1), (0, 0), (5, 5)))
    assert(rows.length == 3)
  }

  test("EXPLAIN of a skyline query shows the skyline node") {
    import spark.implicits._
    Seq((2, 1), (1, 2), (3, 3)).toDF("a", "b").createOrReplaceTempView("explain_t")
    val text = spark.sql("EXPLAIN SELECT * FROM explain_t SKYLINE OF a MIN, b MIN")
      .collect().head.getString(0)
    assert(text.contains("GlobalSkyline"), text)
  }

  test("a temporary view over a skyline query returns the skyline") {
    import spark.implicits._
    Seq((2, 1), (1, 2), (3, 3)).toDF("a", "b").createOrReplaceTempView("view_t")
    spark.sql("CREATE OR REPLACE TEMP VIEW view_sky AS " +
      "SELECT a, b FROM view_t SKYLINE OF a MIN, b MIN")
    val rows = spark.sql("SELECT * FROM view_sky").collect()
    assert(rows.map(r => (r.getInt(0), r.getInt(1))).toSet == Set((2, 1), (1, 2)))
  }

  test("the skyline does not depend on hint resolution (disableHints)") {
    import spark.implicits._
    Seq((2, 1), (1, 2), (3, 3)).toDF("a", "b").createOrReplaceTempView("nohint_t")
    spark.conf.set("spark.sql.optimizer.disableHints", "true")
    try {
      val rows = spark.sql("SELECT * FROM nohint_t SKYLINE OF a MIN, b MIN").collect()
      assert(rows.map(r => (r.getInt(0), r.getInt(1))).toSet == Set((2, 1), (1, 2)))
    } finally spark.conf.unset("spark.sql.optimizer.disableHints")
  }

  test("dimensions named like clause keywords run end to end") {
    import spark.implicits._
    Seq((1, 3), (2, 4), (3, 1)).toDF("limit", "sort").createOrReplaceTempView("kw_t")
    val rows = spark.sql(
      "SELECT t.limit, sort FROM kw_t t SKYLINE OF t.limit MIN, sort MAX").collect()
    assert(rows.map(r => (r.getInt(0), r.getInt(1))).toSet == Set((1, 3), (2, 4)))
  }

  test("a star's EXCEPT before the clause runs end to end") {
    import spark.implicits._
    Seq((2, 1, 9), (1, 2, 9), (3, 3, 9)).toDF("a", "b", "c").createOrReplaceTempView("star_t")
    val rows = spark.sql("SELECT * EXCEPT (c) FROM star_t SKYLINE OF a MIN, b MIN").collect()
    assert(rows.map(r => (r.getInt(0), r.getInt(1))).toSet == Set((2, 1), (1, 2)))
    assert(rows.head.length == 2)
  }

  test("parameters bind in WHERE and in a dimension; a positional one in a dimension is rejected") {
    import spark.implicits._
    Seq((2, 1), (1, 2), (3, 3), (0, 9)).toDF("a", "b").createOrReplaceTempView("param_t")
    def pairs(df: DataFrame): Set[(Int, Int)] = df.collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    // b * -1 MIN is b MAX: {(2, 1), (1, 2)} if :w were 1, (0, 9) if :lo were unbound
    assert(pairs(spark.sql("SELECT a, b FROM param_t WHERE a > :lo SKYLINE OF a MIN, b * :w MIN",
      Map("lo" -> 0, "w" -> -1))) == Set((1, 2), (3, 3)))
    assert(pairs(spark.sql("SELECT a, b FROM param_t WHERE a > ? SKYLINE OF a MIN, b MAX",
      Array(0))) == Set((1, 2), (3, 3)))
    // the dimension moves ahead of the WHERE clause, where `?` would take the WHERE's argument
    val err = intercept[SkylineParseException] {
      spark.sql("SELECT a, b FROM param_t WHERE a > ? SKYLINE OF a MIN, b * ? MIN", Array(0, -1))
    }
    assert(err.getMessage.contains("positional parameter"), err.getMessage)
  }
}
