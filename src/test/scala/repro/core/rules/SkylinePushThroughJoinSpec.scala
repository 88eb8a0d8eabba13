package repro.core.rules

import org.apache.spark.sql.catalyst.plans.logical.Join
import org.apache.spark.sql.internal.SQLConf
import repro.SparkSpec
import repro.core.{SkylineOperator, TestUtil}

/** Optimizer tests for pushing the skyline into a non-reductive join (§5.4). */
class SkylinePushThroughJoinSpec extends SparkSpec {

  private def setup(): Unit = {
    import spark.implicits._
    Seq((1, 10, 5), (2, 20, 9), (3, 10, 9), (4, 30, 1))
      .toDF("lid", "price", "rating").createOrReplaceTempView("jt_left")
    Seq((1, "a"), (1, "b"), (2, "c"), (9, "d"))
      .toDF("lid", "tag").createOrReplaceTempView("jt_right")
  }

  private def optimized(sql: String) = spark.sql(sql).queryExecution.optimizedPlan

  /** Run `body` with the rule switched off, as any Spark optimizer rule is. */
  private def withoutPushdown[T](body: => T): T = {
    spark.conf.set(SQLConf.OPTIMIZER_EXCLUDED_RULES.key, SkylinePushThroughJoin.ruleName)
    try body finally spark.conf.unset(SQLConf.OPTIMIZER_EXCLUDED_RULES.key)
  }

  private def skylineUnderJoin(plan: org.apache.spark.sql.catalyst.plans.logical.LogicalPlan): Boolean =
    plan.collectFirst {
      case j: Join if j.children.exists(_.collectFirst { case s: SkylineOperator => s }.nonEmpty) => j
    }.nonEmpty

  test("skyline over LEFT OUTER join with left-side dims is pushed into the left input") {
    setup()
    val plan = optimized(
      """SELECT * FROM jt_left l LEFT OUTER JOIN jt_right r ON l.lid = r.lid
        |SKYLINE OF price MIN, rating MAX""".stripMargin)
    assert(skylineUnderJoin(plan), s"expected skyline under join:\n$plan")
  }

  test("pushed plan returns the same rows as the unpushed one") {
    setup()
    val sql =
      """SELECT * FROM jt_left l LEFT OUTER JOIN jt_right r ON l.lid = r.lid
        |SKYLINE OF price MIN, rating MAX""".stripMargin
    val pushed = spark.sql(sql).collect().toSeq
    val unpushed = withoutPushdown(spark.sql(sql).collect().toSeq)
    TestUtil.assertSameRows(pushed, unpushed)
  }

  test("pushdown can be disabled by conf") {
    setup()
    val plan = withoutPushdown(optimized(
      """SELECT * FROM jt_left l LEFT OUTER JOIN jt_right r ON l.lid = r.lid
        |SKYLINE OF price MIN, rating MAX""".stripMargin))
    assert(!skylineUnderJoin(plan))
    assert(plan.collectFirst { case s: SkylineOperator => s }.nonEmpty, s"skyline lost:\n$plan")
  }

  test("INNER join is reductive: no pushdown") {
    setup()
    val plan = optimized(
      """SELECT * FROM jt_left l JOIN jt_right r ON l.lid = r.lid
        |SKYLINE OF price MIN, rating MAX""".stripMargin)
    assert(!skylineUnderJoin(plan))
  }

  test("dims spanning both sides: no pushdown") {
    setup()
    val plan = optimized(
      """SELECT * FROM jt_left l LEFT OUTER JOIN jt_right r ON l.lid = r.lid
        |SKYLINE OF price MIN, r.lid MAX""".stripMargin)
    assert(!skylineUnderJoin(plan))
  }

  test("DISTINCT skyline: no pushdown (duplicate count would change)") {
    setup()
    val plan = optimized(
      """SELECT * FROM jt_left l LEFT OUTER JOIN jt_right r ON l.lid = r.lid
        |SKYLINE OF DISTINCT price MIN, rating MAX""".stripMargin)
    assert(!skylineUnderJoin(plan))
  }

  test("RIGHT OUTER join with right-side dims is pushed into the right input") {
    setup()
    val plan = optimized(
      """SELECT * FROM jt_right r RIGHT OUTER JOIN jt_left l ON l.lid = r.lid
        |SKYLINE OF price MIN, rating MAX""".stripMargin)
    assert(skylineUnderJoin(plan), s"expected skyline under join:\n$plan")
  }

  test("inner-join result is still correct (skyline runs after the join)") {
    setup()
    val rows = spark.sql(
      """SELECT * FROM jt_left l JOIN jt_right r ON l.lid = r.lid
        |SKYLINE OF price MIN, rating MAX""".stripMargin).collect()
    // join output: lid1 price10 rating5 ×2, lid2 price20 rating9; skyline of
    // the *joined* tuples: (10,5) vs (20,9) incomparable → all 3 rows
    assert(rows.length == 3)
  }

  test("left-outer pushed result matches the definitional skyline of the join output") {
    setup()
    val sql =
      """SELECT * FROM jt_left l LEFT OUTER JOIN jt_right r ON l.lid = r.lid
        |SKYLINE OF price MIN, rating MAX""".stripMargin
    val got = spark.sql(sql).collect().toSeq
    val joined = spark.sql(
      "SELECT * FROM jt_left l LEFT OUTER JOIN jt_right r ON l.lid = r.lid")
    val dimIdx = Seq(
      joined.columns.indexOf("price") -> repro.core.Direction.Min,
      joined.columns.indexOf("rating") -> repro.core.Direction.Max)
    val expected = repro.reference.BruteForce.skyline(
      joined.collect().toSeq, dimIdx, incomplete = false)
    TestUtil.assertSameRows(got, expected)
  }
}
