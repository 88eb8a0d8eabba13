package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Argument handling of the spark-submit entry point; no Spark session. */
class JobsSpec extends AnyFunSuite {

  private val all = Seq("table3", "table4", "table5", "table6", "table7", "table8",
    "table9", "table10", "table11", "table12", "appendixE")

  test("no argument selects every table; names select those tables in order") {
    assert(Jobs.select(Nil).map(_._1) == all)
    assert(Jobs.select(Seq("appendixE", "table5")).map(_._1) == Seq("appendixE", "table5"))
  }

  test("an unknown table name is rejected with the list of valid names") {
    val e = intercept[IllegalArgumentException](Jobs.select(Seq("table5", "table13")))
    assert(e.getMessage.contains("'table13'"))
    assert(e.getMessage.contains(all.mkString(" ")))
  }
}
