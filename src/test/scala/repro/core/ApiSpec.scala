package repro.core

import org.apache.spark.sql.AnalysisException
import repro.SparkSpec
import repro.core.api._
import repro.data.SkylineData

/** DataFrame API tests (§5.8): smin/smax/sdiff, flags, parity with SQL. */
class ApiSpec extends SparkSpec {

  // (120,9) is dominated by (80,9); the skyline is {3, 5}
  private lazy val hotels = {
    import spark.implicits._
    Seq(
      (1, 100.0, 7), (2, 50.0, 6), (3, 80.0, 9), (4, 120.0, 9), (5, 50.0, 8),
    ).toDF("id", "price", "rating")
  }

  test("skyline with Column dimensions") {
    val out = hotels.skyline(smin(hotels("price")), smax(hotels("rating")))
    assert(out.collect().map(_.getInt(0)).toSet == Set(3, 5))
  }

  test("skyline with string-named dimensions") {
    val out = hotels.skyline(smin("price"), smax("rating"))
    assert(out.collect().map(_.getInt(0)).toSet == Set(3, 5))
  }

  test("sdiff partitions the skyline") {
    val out = hotels.skyline(sdiff("rating"), smin("price"))
    // per rating group the cheapest: 7→1, 6→2, 9→3, 8→5
    assert(out.collect().map(_.getInt(0)).toSet == Set(1, 2, 3, 5))
  }

  test("skylineDistinct deduplicates dimension ties") {
    import spark.implicits._
    val df = Seq((1, 5), (2, 5), (3, 5)).toDF("id", "v")
    assert(df.skyline(smin("v")).count() == 3)
    assert(df.skylineDistinct(smin("v")).count() == 1)
  }

  test("skylineComplete sets the complete flag in the logical plan") {
    val plan = hotels.skylineComplete(smin("price")).queryExecution.analyzed
    val sky = plan.collectFirst { case s: SkylineOperator => s }.get
    assert(sky.complete && !sky.distinct)
  }

  test("skylineDistinctComplete sets both flags") {
    val plan = hotels.skylineDistinctComplete(smin("price")).queryExecution.analyzed
    val sky = plan.collectFirst { case s: SkylineOperator => s }.get
    assert(sky.complete && sky.distinct)
  }

  test("API result equals SQL result") {
    hotels.createOrReplaceTempView("api_hotels")
    val viaSql = spark
      .sql("SELECT * FROM api_hotels SKYLINE OF price MIN, rating MAX")
      .collect().toSeq
    val viaApi = hotels.skyline(smin("price"), smax("rating")).collect().toSeq
    TestUtil.assertSameRows(viaApi, viaSql)
  }

  test("API composes with filters and projections") {
    val out = hotels.where("price < 110").select("id", "price", "rating")
      .skyline(smin("price"), smax("rating"))
    assert(out.collect().map(_.getInt(0)).toSet == Set(3, 5))
  }

  test("API composes with orderBy and limit downstream") {
    val out = hotels.skyline(smin("price"), smax("rating"))
      .orderBy("price").limit(2)
    assert(out.collect().map(_.getInt(0)).toSeq == Seq(5, 3))
  }

  test("expression dimensions through the API") {
    val out = hotels.skyline(smin(hotels("price") / hotels("rating")))
    assert(out.collect().map(_.getInt(0)).toSet == Set(5))
  }

  test("chained skylines (skyline of a skyline)") {
    val once = hotels.skyline(smin("price"), smax("rating"))
    val twice = once.skyline(smin("price"), smax("rating"))
    TestUtil.assertSameRows(twice.collect().toSeq, once.collect().toSeq)
  }

  test("skyline over an aggregated DataFrame") {
    import org.apache.spark.sql.functions._
    val agg = hotels.groupBy("rating").agg(min("price").as("min_price"))
    val out = agg.skyline(smin("min_price"), smax("rating"))
    // groups: 7→100, 6→50, 9→80, 8→50; (6,50) dominated by (8,50)
    assert(out.collect().map(r => (r.getInt(0), r.getDouble(1))).toSet ==
      Set((8, 50.0), (9, 80.0)))
  }

  test("skyline over an aggregated DataFrame on a column its projection dropped") {
    import org.apache.spark.sql.functions._
    val agg = hotels.groupBy("rating").agg(min("price").as("min_price")).select("rating")
    val out = agg.skyline(smin("min_price"), smax("rating"))
    assert(out.columns.toSeq == Seq("rating"))
    assert(out.collect().map(_.getInt(0)).toSet == Set(8, 9))
  }

  test("a dimension of a type ORDER BY rejects fails at analysis") {
    import org.apache.spark.sql.functions._
    val df = hotels.select(col("id"), map(col("id"), col("price")).as("m"),
      parse_json(col("rating").cast("string")).as("v"))
    Seq(
      () => df.skyline(smin("m")),
      () => df.skyline(smin("id"), smax("v")),
      () => df.skylineDistinctComplete(sdiff("m"), smin("id")),
    ).foreach { skyline =>
      val e = intercept[AnalysisException](skyline())
      assert(e.getCondition == "DATATYPE_MISMATCH.INVALID_ORDERING_TYPE", e.getMessage)
    }
  }

  test("works on a larger generated dataset") {
    val df = SkylineData.airbnb(spark, 1000)
    val out = df.skyline(smin("price"), smax("accommodates"), smax("beds"))
    assert(out.count() > 0)
  }
}
