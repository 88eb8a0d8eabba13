package repro.core.rules

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.expressions.aggregate.AggregateExpression
import org.apache.spark.sql.catalyst.plans.logical.Aggregate
import repro.SparkSpec
import repro.core.{Direction, SkylineOperator, TestUtil}
import repro.data.SkylineData
import repro.reference.BruteForce

/** Analyzer-extension tests (§5.3, Listings 6–7): dimensions missing from
  * the projection, aggregate dimensions, HAVING in between.
  */
class ResolveSkylineSpec extends SparkSpec {

  private def withHotels[T](body: => T): T = {
    import spark.implicits._
    Seq(
      (1, 100.0, 7, 10), (2, 50.0, 6, 5), (3, 80.0, 9, 3),
      (4, 120.0, 9, 8), (5, 50.0, 8, 1),
    ).toDF("id", "price", "rating", "reviews").createOrReplaceTempView("rs_hotels")
    body
  }

  test("dimension missing from the projection resolves (Listing 6)") {
    withHotels {
      val out = spark.sql("SELECT price FROM rs_hotels SKYLINE OF price MIN, rating MAX")
      // output schema keeps only the projected column...
      assert(out.columns.toSeq == Seq("price"))
      // ...while the skyline is computed over both dimensions
      // (120,9) is dominated by (80,9)
      assert(TestUtil.canon(out.collect().toSeq).map(_.head).toSet == Set(50.0, 80.0))
    }
  }

  test("two missing dimensions resolve") {
    withHotels {
      val out = spark.sql("SELECT id FROM rs_hotels SKYLINE OF price MIN, rating MAX")
      assert(out.columns.toSeq == Seq("id"))
      assert(out.collect().map(_.getInt(0)).toSet == Set(3, 5))
    }
  }

  test("analyzed plan has a projection above the widened skyline") {
    withHotels {
      val plan = spark.sql("SELECT price FROM rs_hotels SKYLINE OF rating MAX")
        .queryExecution.analyzed
      assert(plan.output.map(_.name) == Seq("price"))
      val sky = plan.collectFirst { case s: SkylineOperator => s }.get
      assert(sky.resolved)
      assert(sky.child.output.map(_.name).contains("rating"))
    }
  }

  test("aggregate alias as dimension (GROUP BY)") {
    withHotels {
      val out = spark.sql(
        """SELECT rating, avg(price) AS avg_price FROM rs_hotels
          |GROUP BY rating SKYLINE OF avg_price MIN, rating MAX""".stripMargin)
      val rows = out.collect().map(r => (r.getInt(0), r.getDouble(1))).toMap
      // groups: 7→100, 6→50, 9→100, 8→50; (6,50)≺(8,50), (7,100)≺(9,100)
      assert(rows.keySet == Set(8, 9))
    }
  }

  test("aggregate function as dimension not in the SELECT list (Listing 7)") {
    withHotels {
      val out = spark.sql(
        """SELECT rating FROM rs_hotels GROUP BY rating
          |SKYLINE OF count(1) MAX""".stripMargin)
      assert(out.columns.toSeq == Seq("rating"))
      // counts: 7->1, 6->1, 9->2, 8->1 → skyline = rating 9
      assert(out.collect().map(_.getInt(0)).toSet == Set(9))
    }
  }

  test("aggregate dimension over a different column than the output aggregate") {
    withHotels {
      val out = spark.sql(
        """SELECT rating, sum(price) AS s FROM rs_hotels GROUP BY rating
          |SKYLINE OF min(reviews) MIN""".stripMargin)
      // min(reviews) per rating: 7->10, 6->5, 9->3, 8->1 → skyline keeps rating 8
      assert(out.collect().map(_.getInt(0)).toSet == Set(8))
      assert(out.columns.toSeq == Seq("rating", "s"), "helper column must be projected away")
    }
  }

  test("HAVING between aggregate and skyline (Filter rebuild)") {
    withHotels {
      val out = spark.sql(
        """SELECT rating, count(1) AS n FROM rs_hotels GROUP BY rating
          |HAVING count(1) >= 1 SKYLINE OF n MAX""".stripMargin)
      assert(out.collect().map(_.getInt(0)).toSet == Set(9))
    }
  }

  test("HAVING with an aggregate-function skyline dimension") {
    withHotels {
      val out = spark.sql(
        """SELECT rating FROM rs_hotels GROUP BY rating
          |HAVING min(price) > 0 SKYLINE OF max(reviews) MAX""".stripMargin)
      // max(reviews): 7->10, 6->5, 9->8, 8->1 → skyline rating 7
      assert(out.collect().map(_.getInt(0)).toSet == Set(7))
    }
  }

  test("an aggregate HAVING already computes is reused, not computed again") {
    withHotels {
      val out = spark.sql(
        """SELECT rating FROM rs_hotels GROUP BY rating
          |HAVING count(1) >= 1 SKYLINE OF count(1) MAX""".stripMargin)
      val analyzed = out.queryExecution.analyzed
      val agg = analyzed.collectFirst { case a: Aggregate => a }.get
      assert(agg.aggregateExpressions.flatMap(_.collect { case e: AggregateExpression => e })
        .size == 1, agg)
      assert(!analyzed.toString.contains("_skyline_dim_"), analyzed)
      // counts per rating: 7->1, 6->1, 9->2, 8->1
      val grouped = Seq(Row(7, 1), Row(6, 1), Row(9, 2), Row(8, 1))
      TestUtil.assertSameRows(out.collect().toSeq,
        BruteForce.skyline(grouped, Seq(1 -> Direction.Max), incomplete = false)
          .map(r => Row(r.getInt(0))))
    }
  }

  test("GROUP BY + skyline + ORDER BY all compose") {
    withHotels {
      val out = spark.sql(
        """SELECT rating, count(1) AS n FROM rs_hotels GROUP BY rating
          |SKYLINE OF n MAX ORDER BY rating""".stripMargin)
      assert(out.collect().map(_.getInt(0)).toSeq == Seq(9))
    }
  }

  test("unresolvable dimension raises an analysis error") {
    withHotels {
      val e = intercept[Exception] {
        spark.sql("SELECT id FROM rs_hotels SKYLINE OF does_not_exist MIN").collect()
      }
      assert(e.getMessage.toLowerCase.contains("does_not_exist"))
    }
  }

  test("non-grouped non-aggregated dimension under GROUP BY raises an error") {
    withHotels {
      intercept[Exception] {
        spark.sql(
          "SELECT rating FROM rs_hotels GROUP BY rating SKYLINE OF price MIN").collect()
      }
    }
  }

  test("skyline over WHERE-filtered input") {
    withHotels {
      val out = spark.sql(
        "SELECT id FROM rs_hotels WHERE price > 60 SKYLINE OF price MIN, rating MAX")
      // remaining: (100,7),(80,9),(120,9) → only (80,9) survives
      assert(out.collect().map(_.getInt(0)).toSet == Set(3))
    }
  }

  test("expression dimension referencing non-projected columns") {
    withHotels {
      val out = spark.sql(
        "SELECT id FROM rs_hotels SKYLINE OF price / rating MIN")
      // price/rating: 14.3, 8.3, 8.9, 13.3, 6.25 → min is hotel 5
      assert(out.collect().map(_.getInt(0)).toSet == Set(5))
    }
  }

  test("resolution works through the DataFrame API with string columns") {
    import repro.core.api._
    val df = SkylineData.airbnb(spark, 200)
    val out = df.select("id", "price").skyline(smin("price"))
    assert(out.columns.toSeq == Seq("id", "price"))
    assert(out.count() >= 1)
  }

  test("sort on aggregate with HAVING still resolves in stock Spark 4 (Appendix B regression)") {
    withHotels {
      // The paper reports a Spark 3.2 analyzer bug (Sort over Filter over
      // Aggregate loses aggregate resolution); pin that Spark 4.1 is fixed.
      val out = spark.sql(
        """SELECT rating, count(1) AS n FROM rs_hotels GROUP BY rating
          |HAVING count(1) > 0 ORDER BY sum(price)""".stripMargin)
      assert(out.collect().length == 4)
    }
  }
}
