package repro.core.physical

import repro.SparkSpec
import repro.core.{Direction, TestUtil}
import repro.core.api._
import repro.data.SkylineData
import repro.reference.BruteForce

/** The single-dimension MIN/MAX optimization of §5.4: "the Pareto optimum in
  * a single dimension is simply the optimum", realized as scalar extreme +
  * selection in O(n).
  */
class SingleDimSkylineSpec extends SparkSpec {

  import Direction._

  private def nodes(df: org.apache.spark.sql.DataFrame) =
    TestUtil.executedNodes(df)

  test("1-dim MIN skyline plans SingleDimSkylineExec (auto)") {
    val df = SkylineData.airbnb(spark, 500)
    val ns = nodes(df.skyline(smin("price")))
    assert(ns.exists(_.isInstanceOf[SingleDimSkylineExec]))
    assert(!ns.exists(_.isInstanceOf[SkylineExec]))
  }

  test("1-dim optimization also applies in every forced specialized mode (Table 5 dim-1)") {
    val df = SkylineData.airbnb(spark, 500)
    for (algo <- Seq("distributed-complete", "non-distributed-complete",
                     "distributed-incomplete")) {
      val run = TestUtil.skylineWith(df, Seq("price" -> Min), algo)
      assert(run.nodes.exists(_.isInstanceOf[SingleDimSkylineExec]), algo)
    }
  }

  test("DIFF single dimension does not use the optimization") {
    import spark.implicits._
    val df = Seq((1, 1), (2, 2)).toDF("a", "b")
    assert(!nodes(df.skyline(sdiff("a"))).exists(_.isInstanceOf[SingleDimSkylineExec]))
  }

  test("DISTINCT single dimension does not use the optimization") {
    import spark.implicits._
    val df = Seq((1, 1), (1, 2)).toDF("a", "b")
    assert(!nodes(df.skylineDistinct(smin("a"))).exists(_.isInstanceOf[SingleDimSkylineExec]))
  }

  test("struct and array dimensions match the scalar-subquery rewrite") {
    // the projection and the shuffle reader hand out reused row buffers: an
    // extreme kept from one row must not change when the next row arrives
    spark.range(2000)
      .selectExpr("id", "pmod(hash(id), 1000) AS x", "pmod(hash(id, 7), 1000) AS y")
      .repartition(3)
      .selectExpr("id", "named_struct('p', x, 'q', y) AS s", "array(x, y) AS a")
      .createOrReplaceTempView("sd_nested")
    for (dim <- Seq("s", "a"); (dir, agg) <- Seq("MIN" -> "min", "MAX" -> "max")) {
      val df = spark.sql(s"SELECT * FROM sd_nested SKYLINE OF $dim $dir")
      assert(nodes(df).exists(_.isInstanceOf[SingleDimSkylineExec]), s"$dim $dir")
      val expected = spark.sql(
        s"SELECT * FROM sd_nested WHERE $dim = (SELECT $agg($dim) FROM sd_nested)")
      TestUtil.assertSameRows(df.collect().toSeq, expected.collect().toSeq, s"$dim $dir")
    }
  }

  test("MIN: returns all tuples attaining the minimum") {
    import spark.implicits._
    val df = Seq((1, "x"), (1, "y"), (2, "z"), (3, "w")).toDF("v", "tag")
    val out = df.skyline(smin("v")).collect().map(_.getString(1)).toSet
    assert(out == Set("x", "y"))
  }

  test("MAX: returns all tuples attaining the maximum") {
    import spark.implicits._
    val df = Seq((1, "x"), (5, "y"), (5, "z")).toDF("v", "tag")
    val out = df.skyline(smax("v")).collect().map(_.getString(1)).toSet
    assert(out == Set("y", "z"))
  }

  test("matches the BNL answer on random data (MIN and MAX)") {
    val df = SkylineData.storeSales(spark, 2000).cache()
    try {
      for ((c, dir) <- Seq("ss_wholesale_cost" -> Min, "ss_quantity" -> Max)) {
        val fast = df.skyline(SkylineColumn(df(c), dir)).collect().toSeq
        val expected = BruteForce.skyline(
          df.collect().toSeq, TestUtil.dimIndices(df, Seq(c -> dir)), incomplete = true)
        TestUtil.assertSameRows(fast, expected, s"$c $dir")
      }
    } finally { df.unpersist(); () }
  }

  test("incomplete mode: null-dimension tuples are vacuously in the skyline") {
    import spark.implicits._
    val df = Seq(Option(3), Option(1), None, Option(1), None)
      .toDF("v")
    val out = df.skyline(smin("v")).collect().map(r =>
      if (r.isNullAt(0)) null else r.getInt(0)).toSeq
    // skyline = both 1s and both nulls; 3 is dominated
    assert(out.count(_ == null) == 2)
    assert(out.count(_ == 1) == 2)
    assert(!out.contains(3))
  }

  test("incomplete mode: all-null column keeps everything") {
    import spark.implicits._
    val df = Seq[Option[Int]](None, None, None).toDF("v")
    assert(df.skyline(smax("v")).count() == 3)
  }

  test("empty input: empty skyline") {
    val df = SkylineData.airbnb(spark, 100).where("price < 0")
    assert(df.skyline(smin("price")).count() == 0)
  }

  test("single-dim on double, string and date types") {
    import spark.implicits._
    assert(Seq(2.5, 1.5, 1.5).toDF("v").skyline(smin("v")).count() == 2)
    assert(Seq("b", "a", "c").toDF("v").skyline(smin("v")).collect()
      .head.getString(0) == "a")
    import java.sql.Date
    val d = Seq(Date.valueOf("2020-01-02"), Date.valueOf("2020-01-01"))
      .toDF("v").skyline(smin("v")).collect().head.getDate(0)
    assert(d == Date.valueOf("2020-01-01"))
  }

  test("1-dim via SQL string also uses the optimized operator") {
    SkylineData.airbnb(spark, 300).createOrReplaceTempView("sd_air")
    val df = spark.sql("SELECT * FROM sd_air SKYLINE OF price MIN")
    assert(nodes(df).exists(_.isInstanceOf[SingleDimSkylineExec]))
  }
}
