package repro.core

import java.util.Locale

/** Direction of a skyline dimension: MIN, MAX, or DIFF (Listing 3 of the
  * paper). MIN/MAX dimensions are the ones a tuple can be "better" in; DIFF
  * dimensions partition the skyline — tuples only compare when equal there.
  */
sealed abstract class Direction(val sql: String) extends Serializable {
  override def toString: String = sql
}

object Direction {
  /** Smaller is better. */
  case object Min extends Direction("MIN")

  /** Larger is better. */
  case object Max extends Direction("MAX")

  /** Tuples are comparable only if equal in this dimension. */
  case object Diff extends Direction("DIFF")

  val all: Seq[Direction] = Seq(Min, Max, Diff)

  /** Parse a direction keyword (case-insensitive). */
  def fromString(s: String): Option[Direction] = s.toUpperCase(Locale.ROOT) match {
    case "MIN"  => Some(Min)
    case "MAX"  => Some(Max)
    case "DIFF" => Some(Diff)
    case _      => None
  }
}
