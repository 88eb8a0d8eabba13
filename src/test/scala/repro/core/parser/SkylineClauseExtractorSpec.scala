package repro.core.parser

import org.apache.spark.sql.catalyst.parser.ParseException
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, SubqueryAlias, Union, UnresolvedWith}
import org.apache.spark.sql.execution.SparkSqlParser
import org.scalatest.funsuite.AnyFunSuite
import repro.core.SkylineOperator
import repro.core.Direction.{Diff, Max, Min}

/** Pure tests of the SKYLINE OF clause (Listing 5): where the extractor moves
  * each clause and what the session-free parser makes of it.
  */
class SkylineClauseExtractorSpec extends AnyFunSuite {

  private val plain = new SparkSqlParser
  private val parser = new SkylineSqlParser(plain)

  private def hints(sql: String) = SkylineClauseExtractor.toHints(sql)

  private def parse(sql: String) = parser.parsePlan(sql)

  /** The one skyline node `sql` parses into. */
  private def sky(sql: String): SkylineOperator = {
    val nodes = parse(sql).collectWithSubqueries { case s: SkylineOperator => s }
    assert(nodes.size == 1, sql)
    nodes.head
  }

  /** The skyline's dimensions as (expression, direction). */
  private def dims(sql: String) = sky(sql).dimensions.map(d => d.child -> d.direction)

  private def e(text: String) = plain.parseExpression(text)

  /** A plan printed without expression ids, which differ between parses. */
  private def show(plan: LogicalPlan) = plan.treeString.replaceAll("#\\d+", "")

  /** `sql`'s plan with the skyline node taken out, as the plain parser's
    * plan of `rest` is.
    */
  private def assertRest(sql: String, rest: String) =
    assert(show(parse(sql).transformUp { case s: SkylineOperator => s.child }) ==
      show(plain.parsePlan(rest)))

  test("query without the keyword passes through untouched") {
    val q = "SELECT * FROM t WHERE x > 1"
    assert(hints(q) == q)
  }

  test("basic clause with two dimensions") {
    val q = "SELECT * FROM hotels SKYLINE OF price MIN, rating MAX"
    assert(!sky(q).distinct && !sky(q).complete)
    assert(dims(q) == Seq(e("price") -> Min, e("rating") -> Max))
    assertRest(q, "SELECT * FROM hotels")
  }

  test("keywords are case-insensitive") {
    assert(dims("select * from t skyline of a min, b max, c diff") ==
      Seq(e("a") -> Min, e("b") -> Max, e("c") -> Diff))
  }

  test("DISTINCT flag") {
    val s = sky("SELECT * FROM t SKYLINE OF DISTINCT a MIN")
    assert(s.distinct && !s.complete)
  }

  test("COMPLETE flag") {
    val s = sky("SELECT * FROM t SKYLINE OF COMPLETE a MIN")
    assert(!s.distinct && s.complete)
  }

  test("DISTINCT COMPLETE together") {
    val s = sky("SELECT * FROM t SKYLINE OF DISTINCT COMPLETE a MIN, b MAX")
    assert(s.distinct && s.complete)
    assert(s.dimensions.size == 2)
  }

  test("clause before ORDER BY keeps the suffix") {
    val q = "SELECT * FROM t SKYLINE OF a MIN ORDER BY b DESC"
    assert(dims(q) == Seq(e("a") -> Min))
    assertRest(q, "SELECT * FROM t ORDER BY b DESC")
  }

  test("clause before LIMIT keeps the suffix") {
    assertRest("SELECT * FROM t SKYLINE OF a MAX LIMIT 10", "SELECT * FROM t LIMIT 10")
  }

  test("clause before ORDER BY ... LIMIT") {
    assertRest("SELECT * FROM t SKYLINE OF a MAX ORDER BY a LIMIT 5",
      "SELECT * FROM t ORDER BY a LIMIT 5")
  }

  test("expression dimensions with function calls and commas inside parens") {
    assert(dims("SELECT * FROM t SKYLINE OF round(a, 2) MIN, b + c MAX") ==
      Seq(e("round(a, 2)") -> Min, e("b + c") -> Max))
  }

  test("nested function calls in dimensions") {
    assert(dims("SELECT * FROM t SKYLINE OF coalesce(a, least(b, c)) MIN") ==
      Seq(e("coalesce(a, least(b, c))") -> Min))
  }

  test("aggregate expression dimension") {
    val q = "SELECT k, sum(v) AS s FROM t GROUP BY k SKYLINE OF count(1) MAX"
    assert(dims(q) == Seq(e("count(1)") -> Max))
    assertRest(q, "SELECT k, sum(v) AS s FROM t GROUP BY k")
  }

  test("skyline inside a string literal is ignored") {
    val q = "SELECT 'SKYLINE OF x MIN' AS s FROM t"
    assert(hints(q) == q)
  }

  test("skyline inside a line comment is ignored") {
    val q = "SELECT * FROM t -- SKYLINE OF a MIN\nWHERE x = 1"
    assert(hints(q) == q)
  }

  test("skyline inside a block comment is ignored") {
    val q = "SELECT * FROM t /* SKYLINE OF a MIN */ WHERE x = 1"
    assert(hints(q) == q)
  }

  test("nested block comments are handled") {
    val q = "SELECT * FROM t /* outer /* SKYLINE OF a MIN */ still comment */"
    assert(hints(q) == q)
  }

  test("skyline inside a subquery (paren depth > 0) is not extracted at top level") {
    val q = "SELECT * FROM (SELECT 1 AS a) x WHERE 'SKYLINE' = 'SKYLINE'"
    assert(hints(q) == q)
  }

  test("identifier named skyline without OF is not a clause") {
    assert(hints("SELECT skyline FROM t") == "SELECT skyline FROM t")
    val q = "SELECT skyline, x FROM t WHERE skyline > 2"
    assert(hints(q) == q)
  }

  test("column named skyline_of is not a clause") {
    assert(hints("SELECT skyline_of FROM t") == "SELECT skyline_of FROM t")
  }

  test("clause over a parenthesized subquery relation") {
    val q = "SELECT * FROM (SELECT a, b FROM t) sub SKYLINE OF a MIN, b MAX"
    assert(dims(q).size == 2)
    assertRest(q, "SELECT * FROM (SELECT a, b FROM t) sub")
  }

  test("missing direction keyword is rejected") {
    val err = intercept[SkylineParseException] {
      hints("SELECT * FROM t SKYLINE OF a, b MAX")
    }
    assert(err.getMessage.contains("MIN, MAX or DIFF"))
  }

  test("dangling direction without expression is rejected") {
    intercept[SkylineParseException] {
      hints("SELECT * FROM t SKYLINE OF MIN")
    }
  }

  test("empty dimension between commas is rejected") {
    intercept[SkylineParseException] {
      hints("SELECT * FROM t SKYLINE OF a MIN, , b MAX")
    }
  }

  test("two top-level skyline clauses are rejected") {
    val err = intercept[SkylineParseException] {
      hints("SELECT * FROM t SKYLINE OF a MIN SKYLINE OF b MAX")
    }
    assert(err.getMessage.contains("one SKYLINE OF per SELECT"))
    assert(err.getMessage.contains("'SKYLINE OF b MAX'"))
  }

  test("whitespace and newlines inside the clause") {
    assert(dims("SELECT * FROM t\n  SKYLINE   OF\n  a   MIN ,\n  b\tMAX\nORDER BY a") ==
      Seq(e("a") -> Min, e("b") -> Max))
  }

  test("comments inside the clause are skipped") {
    val s = sky("SELECT * FROM t SKYLINE OF -- dims\n a MIN, /* x */ b MAX")
    assert(s.dimensions.map(_.direction) == Seq(Min, Max))
  }

  test("backquoted identifiers in dimensions") {
    assert(dims("SELECT * FROM t SKYLINE OF `my col` MIN") == Seq(e("`my col`") -> Min))
  }

  test("UNION after the clause terminates it") {
    val q = "SELECT * FROM t SKYLINE OF a MIN UNION SELECT * FROM u"
    assert(dims(q) == Seq(e("a") -> Min))
    assertRest(q, "SELECT * FROM t UNION SELECT * FROM u")
    val union = parse(q).collectFirst { case u: Union => u }.get
    assert(union.children.head.isInstanceOf[SkylineOperator])
  }

  test("qualified column names in dimensions") {
    assert(dims("SELECT * FROM t SKYLINE OF t.a MIN, t.b MAX") ==
      Seq(e("t.a") -> Min, e("t.b") -> Max))
  }

  test("CASE expression as a dimension") {
    assert(dims("SELECT * FROM t SKYLINE OF CASE WHEN a > 0 THEN a ELSE 0 END MIN") ==
      Seq(e("CASE WHEN a > 0 THEN a ELSE 0 END") -> Min))
  }

  test("raw string literal with a trailing backslash before the clause") {
    val q = "SELECT r'C:\\' AS p, x FROM t SKYLINE OF x MIN"
    assert(dims(q) == Seq(e("x") -> Min))
    assertRest(q, "SELECT r'C:\\' AS p, x FROM t")
  }

  test("characters outside the BMP before the clause keep offsets right") {
    val q = "SELECT '\uD83D\uDE00' AS s, x FROM t SKYLINE OF x + 1 MIN"
    assert(dims(q) == Seq(e("x + 1") -> Min))
    assertRest(q, "SELECT '\uD83D\uDE00' AS s, x FROM t")
  }

  test("tokens after a dimension's direction are rejected") {
    val err = intercept[SkylineParseException] {
      hints("SELECT * FROM t SKYLINE OF a MIN + 1")
    }
    assert(err.getMessage.contains("'a MIN + 1' must end with MIN, MAX or DIFF"))
  }

  test("clause inside a subquery is placed in that query level") {
    val plan = parse("SELECT * FROM (SELECT * FROM t SKYLINE OF a MIN) s")
    assert(plan.collectFirst { case s: SubqueryAlias => s.child }.get
      .isInstanceOf[SkylineOperator])
    assert(!plan.isInstanceOf[SkylineOperator])
  }

  test("clause inside a CTE body is placed in that query level") {
    val plan = parse("WITH c AS (SELECT * FROM t SKYLINE OF a MIN) SELECT * FROM c")
    val w = plan.asInstanceOf[UnresolvedWith]
    assert(w.cteRelations.head._2.child.isInstanceOf[SkylineOperator])
    assert(w.child.collect { case s: SkylineOperator => s }.isEmpty)
  }

  test("trailing semicolon ends the clause and stays in the stripped SQL") {
    val q = "SELECT * FROM t SKYLINE OF a MIN, b MAX;"
    assert(dims(q) == Seq(e("a") -> Min, e("b") -> Max))
    assert(hints(q).endsWith(" FROM t  ;"))
    assertRest(q, "SELECT * FROM t;")
  }

  test("unmatched parenthesis before the clause is left to Spark's parser") {
    val q = "SELECT a) FROM t SKYLINE OF x MIN"
    assert(hints(q) == q)
    intercept[ParseException] { parse(q) }
  }

  test("unmatched parenthesis inside the clause is rejected") {
    val err = intercept[SkylineParseException] {
      hints("SELECT * FROM t SKYLINE OF a MIN) ORDER BY a")
    }
    assert(err.getMessage.contains("must end with MIN, MAX or DIFF"))
  }

  test("the clause becomes a hint right after its SELECT") {
    assert(hints("SELECT a, b FROM t SKYLINE OF DISTINCT a MIN, b + c MAX") ==
      "SELECT /*+ SKYLINE_OF(true, false, 'MIN', (a), 'MAX', (b + c)) */ a, b FROM t  ")
  }

  test("dimensions named like clause keywords") {
    assert(dims("SELECT * FROM t SKYLINE OF sort MIN, cluster MAX") ==
      Seq(e("sort") -> Min, e("cluster") -> Max))
    assert(dims("SELECT * FROM t SKYLINE OF t.limit MIN") == Seq(e("t.limit") -> Min))
  }

  test("a dimension holding a comment end marker in a string") {
    assert(dims("SELECT * FROM t SKYLINE OF concat(a, '*/') MIN") ==
      Seq(e("concat(a, '*/')") -> Min))
  }

  test("clause without a SELECT in its query level is rejected") {
    for (q <- Seq(
        "TABLE t SKYLINE OF a MIN",
        "VALUES (1, 2), (2, 1) SKYLINE OF a MIN",
        "(SELECT a FROM t) SKYLINE OF a MIN",
        "SELECT a, b FROM t UNION (SELECT a, b FROM u) SKYLINE OF a MIN")) {
      val err = intercept[SkylineParseException](hints(q))
      assert(err.getMessage ==
        "SKYLINE OF must follow a SELECT of the same query level: 'SKYLINE OF a MIN'", q)
    }
  }

  test("clause inside a skyline dimension is rejected") {
    val err = intercept[SkylineParseException] {
      hints("SELECT * FROM t SKYLINE OF (SELECT max(x) FROM u SKYLINE OF x MIN) MIN")
    }
    assert(err.getMessage.contains("none inside a skyline dimension: 'SKYLINE OF x MIN'"))
  }

  test("a star's EXCEPT and columns named like set operators are not set operators") {
    assert(dims("SELECT * EXCEPT (c) FROM t SKYLINE OF a MIN") == Seq(e("a") -> Min))
    assert(dims("SELECT union, t.minus FROM t SKYLINE OF union MIN, t.minus MAX") ==
      Seq(e("union") -> Min, e("t.minus") -> Max))
  }
}
