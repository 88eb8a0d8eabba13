package repro.reference

import repro.core.Direction

/** Generator for the plain-SQL skyline rewrite (Listing 4) — the paper's
  * "reference" algorithm and, run on DuckDB, our correctness oracle.
  *
  * Two variants:
  *  - complete: the literal Listing 4 `NOT EXISTS` rewrite. Only correct for
  *    null-free dimensions (a null comparison yields UNKNOWN and silently
  *    drops the dominance test).
  *  - null-aware: comparisons restricted to dimensions where **both** tuples
  *    are non-null, with the strict win required on a mutually non-null
  *    dimension — literally the incomplete dominance of Definition 3.1.
  *    Because `NOT EXISTS` is the definition `SKY(R) = {r | ¬∃s: s < r}`,
  *    this is correct even under cyclic dominance, which makes it a sound
  *    oracle for the incomplete algorithms.
  *
  * `castTo` wraps every compared dimension in `CAST(x AS <type>)`; the
  * DuckDB oracle needs it because `repro.Oracle` (in the tests) stages all
  * columns as VARCHAR.
  */
object ReferenceSkyline {

  /** The full rewritten query.
    *
    * @param relation   table name or parenthesized subquery
    * @param outputCols columns to select (aliased identically inner/outer)
    * @param dims       (column, direction) skyline dimensions
    */
  def rewrite(
      relation: String,
      outputCols: Seq[String],
      dims: Seq[(String, Direction)],
      nullAware: Boolean,
      castTo: Option[String] = None): String = {
    val proj = outputCols.map(c => s"o.$c AS $c").mkString(", ")
    s"""SELECT $proj FROM $relation AS o WHERE NOT EXISTS (
       |  SELECT 1 FROM $relation AS i
       |  WHERE ${dominance("i", "o", dims, nullAware, castTo)}
       |)""".stripMargin
  }

  /** The dominance predicate: `inner` dominates `outer`. */
  def dominance(
      inner: String,
      outer: String,
      dims: Seq[(String, Direction)],
      nullAware: Boolean,
      castTo: Option[String] = None): String = {
    def v(side: String, c: String): String =
      castTo.fold(s"$side.$c")(t => s"CAST($side.$c AS $t)")

    def atLeastAsGood(c: String, op: String): String =
      if (nullAware) s"($inner.$c IS NULL OR $outer.$c IS NULL OR ${v(inner, c)} $op ${v(outer, c)})"
      else s"${v(inner, c)} $op ${v(outer, c)}"

    def strictlyBetter(c: String, op: String): String =
      if (nullAware)
        s"($inner.$c IS NOT NULL AND $outer.$c IS NOT NULL AND ${v(inner, c)} $op ${v(outer, c)})"
      else s"${v(inner, c)} $op ${v(outer, c)}"

    val soft = dims.map {
      case (c, Direction.Min)  => atLeastAsGood(c, "<=")
      case (c, Direction.Max)  => atLeastAsGood(c, ">=")
      case (c, Direction.Diff) => atLeastAsGood(c, "=")
    }
    val strict = dims.collect {
      case (c, Direction.Min) => strictlyBetter(c, "<")
      case (c, Direction.Max) => strictlyBetter(c, ">")
    }
    require(strict.nonEmpty,
      "a skyline over only DIFF dimensions has no dominance relation to rewrite")
    soft.mkString("", "\n    AND ", "") +
      strict.mkString("\n    AND (", "\n      OR ", ")")
  }
}
