package repro.core.parser

import org.antlr.v4.runtime.Token
import org.apache.spark.sql.catalyst.parser.SqlBaseLexer
import org.apache.spark.sql.catalyst.parser.skyline.Bridge
import repro.core.Direction
import scala.jdk.CollectionConverters._

/** Raised for malformed SKYLINE OF clauses (missing direction keyword,
  * empty dimension list, multiple or nested clauses, ...).
  */
class SkylineParseException(message: String) extends IllegalArgumentException(message)

/** Splitter for the `SKYLINE OF` clause (Listing 5 grammar).
  *
  * The paper extends Spark's ANTLR grammar in-tree; against stock Spark the
  * equivalent is to find a *top-level* skyline clause in the token stream of
  * Spark's own SQL lexer, cut it out, and hand the remaining — now
  * grammatically plain — SQL to Spark's own parser. Spark's lexer alone
  * decides what is a string, a quoted identifier or a comment. Dimension
  * expressions are parsed by Spark's expression parser, so arbitrary
  * expressions (arithmetic, function calls, aggregates) are supported
  * exactly as in the paper.
  *
  * Grammar handled (after a HAVING clause, before ORDER BY / LIMIT / set ops):
  * {{{
  *   SKYLINE OF [DISTINCT] [COMPLETE] expr (MIN|MAX|DIFF) (',' expr (MIN|MAX|DIFF))*
  * }}}
  *
  * The clause is only supported at the top level of a query; inside
  * parentheses (a subquery or a CTE body) it is rejected. Queries without
  * the word SKYLINE are returned untouched (`None`) without being lexed —
  * the "no side effects on other queries" property (§5.9).
  */
object SkylineClauseExtractor {

  /** A successfully extracted clause.
    *
    * @param stripped the input SQL with the skyline clause removed
    * @param items    (raw dimension expression text, direction) pairs
    */
  final case class Extraction(
      stripped: String,
      distinct: Boolean,
      complete: Boolean,
      items: Seq[(String, Direction)])

  /** Clause keywords that terminate the dimension list. */
  private val Terminators =
    Set("ORDER", "LIMIT", "OFFSET", "UNION", "EXCEPT", "INTERSECT", "MINUS",
        "SORT", "CLUSTER", "DISTRIBUTE", "WINDOW")

  def extract(sql: String): Option[Extraction] = {
    // Fast path: virtually every query lacks the keyword entirely.
    if (!sql.toUpperCase.contains("SKYLINE")) return None
    val tokens = Bridge.lexer(sql).getAllTokens.asScala
      .filter(_.getChannel == Token.DEFAULT_CHANNEL).toIndexedSeq
    // depth(i): parenthesis depth just before tokens(i)
    val depth = tokens.scanLeft(0) { (d, t) =>
      if (t.getType == SqlBaseLexer.LEFT_PAREN) d + 1
      else if (t.getType == SqlBaseLexer.RIGHT_PAREN) d - 1
      else d
    }
    def is(i: Int, word: String) = i < tokens.size && tokens(i).getText.equalsIgnoreCase(word)
    // Token positions count code points; `sql` is indexed by UTF-16 chars.
    def start(i: Int) =
      if (i < tokens.size) sql.offsetByCodePoints(0, tokens(i).getStartIndex) else sql.length
    def text(from: Int, until: Int) =
      sql.substring(start(from), sql.offsetByCodePoints(0, tokens(until - 1).getStopIndex + 1))

    def item(from: Int, until: Int): (String, Direction) = {
      if (from == until) {
        throw new SkylineParseException(s"skyline dimension at position ${start(from)} is empty")
      }
      val dirText = tokens(until - 1).getText
      val dir = Direction.fromString(dirText).getOrElse {
        throw new SkylineParseException(
          s"skyline dimension '${text(from, until)}' must end with MIN, MAX or DIFF")
      }
      if (from == until - 1) {
        throw new SkylineParseException(s"skyline dimension before '$dirText' has no expression")
      }
      (text(from, until - 1), dir)
    }

    val clauses = tokens.indices.filter(i => is(i, "SKYLINE") && is(i + 1, "OF"))
    if (clauses.exists(depth(_) > 0)) {
      throw new SkylineParseException(
        "SKYLINE OF is only supported at the top level of a query, " +
          "not inside parentheses (a subquery or a CTE body)")
    }
    if (clauses.size > 1) {
      throw new SkylineParseException(
        "only one top-level SKYLINE OF clause is allowed per query")
    }
    clauses.headOption.map { clause =>
      var i = clause + 2
      val distinct = is(i, "DISTINCT")
      if (distinct) i += 1
      val complete = is(i, "COMPLETE")
      if (complete) i += 1
      // A trailing `;` stays in `stripped`: Spark's statement rule accepts it.
      val end = (i until tokens.size).find { j =>
        depth(j) == 0 &&
          (tokens(j).getType == SqlBaseLexer.SEMICOLON ||
            Terminators.contains(tokens(j).getText.toUpperCase))
      }.getOrElse(tokens.size)
      val commas =
        (i until end).filter(j => depth(j) == 0 && tokens(j).getType == SqlBaseLexer.COMMA)
      val items = (i +: commas.map(_ + 1)).zip(commas :+ end).map((item _).tupled)
      val stripped = sql.substring(0, start(clause)) + " " + sql.substring(start(end))
      Extraction(stripped, distinct, complete, items)
    }
  }
}
