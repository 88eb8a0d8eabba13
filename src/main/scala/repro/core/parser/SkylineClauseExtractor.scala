package repro.core.parser

import java.util.Locale
import org.antlr.v4.runtime.Token
import org.apache.spark.sql.catalyst.parser.SqlBaseLexer
import org.apache.spark.sql.catalyst.parser.skyline.Bridge
import repro.core.Direction
import scala.jdk.CollectionConverters._

/** Raised for malformed SKYLINE OF clauses (missing direction keyword,
  * empty dimension list, no SELECT or two clauses for one SELECT, ...).
  */
class SkylineParseException(message: String) extends IllegalArgumentException(message)

/** Moves each `SKYLINE OF` clause (Listing 5 grammar) into a hint on the
  * SELECT of its own query level, where Spark's grammar has a slot:
  * {{{
  *   SELECT a, b FROM t SKYLINE OF DISTINCT a MIN, b + c MAX
  *   SELECT /*+ SKYLINE_OF(true, false, 'MIN', (a), 'MAX', (b + c)) */ a, b FROM t
  * }}}
  * The paper adds `skylineClause` to Spark's query specification in-tree
  * (after HAVING, before ORDER BY); here Spark's own parser places the hint
  * at that spot of every query level and parses the dimensions as ordinary
  * expressions, and [[SkylineSqlParser]] turns it into a SkylineOperator.
  * The clause is found in the token stream of Spark's own SQL lexer, so
  * strings, quoted identifiers and comments are what Spark says they are.
  * {{{
  *   SKYLINE OF [DISTINCT] [COMPLETE] expr (MIN|MAX|DIFF) (',' expr (MIN|MAX|DIFF))*
  * }}}
  */
object SkylineClauseExtractor {

  /** The hint a clause becomes. */
  val HintName = "SKYLINE_OF"

  private val SetOperators = Set("UNION", "EXCEPT", "INTERSECT", "MINUS")

  /** Clause keywords that terminate the dimension list after a direction. */
  private val Terminators = SetOperators ++
    Set("ORDER", "LIMIT", "OFFSET", "SORT", "CLUSTER", "DISTRIBUTE", "WINDOW", "SKYLINE")

  /** `sql` with every clause moved into its SELECT's hint. */
  def toHints(sql: String): String = {
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
    def stop(i: Int) = sql.offsetByCodePoints(0, tokens(i).getStopIndex + 1)
    def text(from: Int, until: Int) = sql.substring(start(from), stop(until - 1))

    /** One dimension as the hint parameters `'DIR', (expr)`. */
    def item(from: Int, until: Int): String = {
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
      // the hint puts the dimension ahead of the query text, and a `?` binds by position
      if ((from until until).exists(tokens(_).getType == SqlBaseLexer.QUESTION)) {
        throw new SkylineParseException(s"skyline dimension '${text(from, until)}' " +
          "takes no positional parameter (?): use a named one (:name)")
      }
      s"'${dir.sql}', (${text(from, until - 1)})"
    }

    // (from, until, replacement, clause text) per edit. A clause after an
    // unmatched `)` is left for Spark's parser to report.
    val edits = tokens.indices.filter(i => is(i, "SKYLINE") && is(i + 1, "OF") && depth(i) >= 0)
      .flatMap { clause =>
        val d = depth(clause)
        var i = clause + 2
        val distinct = is(i, "DISTINCT")
        if (distinct) i += 1
        val complete = is(i, "COMPLETE")
        if (complete) i += 1
        // A trailing `;` stays in the SQL: Spark's statement rule accepts it.
        val end = (i until tokens.size).find { j =>
          depth(j) == d &&
            (d > 0 && tokens(j).getType == SqlBaseLexer.RIGHT_PAREN ||
              Direction.fromString(tokens(j - 1).getText).isDefined &&
                (tokens(j).getType == SqlBaseLexer.SEMICOLON ||
                  Terminators.contains(tokens(j).getText.toUpperCase(Locale.ROOT))))
        }.getOrElse(tokens.size)
        val commas =
          (i until end).filter(j => depth(j) == d && tokens(j).getType == SqlBaseLexer.COMMA)
        val items = (i +: commas.map(_ + 1)).zip(commas :+ end).map((item _).tupled)
        // The nearest SELECT at the clause's depth, not behind the group's `(` or a set operator
        // (a set-operation word after * , . AS or SELECT is a star's EXCEPT or a column name).
        val select = (clause - 1 to 0 by -1)
          .find(j => depth(j) < d || depth(j) == d &&
            (tokens(j).getType == SqlBaseLexer.SELECT || j > 0 &&
              SetOperators.contains(tokens(j).getText.toUpperCase(Locale.ROOT)) &&
              !Set("*", ",", ".", "AS", "SELECT")
                .contains(tokens(j - 1).getText.toUpperCase(Locale.ROOT))))
          .filter(tokens(_).getType == SqlBaseLexer.SELECT)
          .getOrElse(throw new SkylineParseException(
            s"SKYLINE OF must follow a SELECT of the same query level: '${text(clause, end)}'"))
        val hint = s" /*+ $HintName($distinct, $complete, ${items.mkString(", ")}) */"
        Seq((start(select), stop(select), text(select, select + 1) + hint, text(clause, end)),
          (start(clause), start(end), " ", text(clause, end)))
      }

    // Overlapping edits: two clauses for one SELECT, or a clause inside a dimension.
    val out = new StringBuilder
    val rest = edits.sortBy(_._1).foldLeft(0) { case (from, (at, until, piece, clause)) =>
      if (at < from) {
        throw new SkylineParseException(
          s"one SKYLINE OF per SELECT, and none inside a skyline dimension: '$clause'")
      }
      out ++= sql.substring(from, at) ++= piece
      until
    }
    (out ++= sql.substring(rest)).toString
  }
}
