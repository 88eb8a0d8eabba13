package repro.core.physical

import org.apache.spark.sql.catalyst.expressions.IsNull
import org.apache.spark.sql.catalyst.plans.physical.{AllTuples, ClusteredDistribution, UnspecifiedDistribution}
import org.apache.spark.sql.execution.SparkPlan
import repro.SparkSpec
import repro.core.{Direction, SkylineAlgorithms, TestUtil}
import repro.core.api._
import repro.data.SkylineData
import repro.reference.BruteForce

/** Execution tests for the skyline physical operators: every forced
  * algorithm against the definitional brute-force oracle, on complete and
  * incomplete data, plus plan-shape assertions (Listing 8).
  */
class PhysicalSkylineSpec extends SparkSpec {

  import Direction._

  private def nodes(df: org.apache.spark.sql.DataFrame): Seq[SparkPlan] =
    TestUtil.executedNodes(df)

  /** The BNL skyline nodes of a plan by name: `LocalSkyline`,
    * `GlobalSkyline`, `IncompleteLocalSkyline`, `IncompleteGlobalSkyline`
    * (the names EXPLAIN and the stages' RDD scopes show).
    */
  private def skylineNodes(ns: Seq[SparkPlan]): Map[String, SkylineExec] =
    ns.collect { case s: SkylineExec => s.nodeName -> s }.toMap

  private def airbnbC = SkylineData.airbnb(spark, 2000, nullFraction = 0.0)
  private def airbnbI = SkylineData.airbnb(spark, 2000, nullFraction = 0.15)
  private val dims6 = SkylineData.airbnbDims
  private val dims3 = SkylineData.airbnbDims.take(3)
  private val dims2 = SkylineData.airbnbDims.take(2)

  // ---- correctness: every algorithm vs. brute force --------------------

  for (algo <- Seq("auto", "distributed-complete", "non-distributed-complete",
                   "distributed-incomplete")) {
    test(s"$algo matches brute force on complete Airbnb data, 2–6 dims") {
      for (d <- Seq(dims2, dims3, dims6)) {
        TestUtil.assertMatchesBrute(airbnbC, d, algo,
          incomplete = algo == "distributed-incomplete")
      }
    }
  }

  for (algo <- Seq("auto", "distributed-incomplete")) {
    test(s"$algo matches brute force on incomplete Airbnb data (nulls)") {
      // use dimension sets that include the null-bearing trailing columns
      for (d <- Seq(SkylineData.airbnbDims.drop(4), SkylineData.airbnbDims.drop(2))) {
        TestUtil.assertMatchesBrute(airbnbI, d, algo, incomplete = true)
      }
    }
  }

  test("store_sales: all algorithms agree with brute force (3 dims)") {
    val df = SkylineData.storeSales(spark, 1500)
    for (algo <- Seq("distributed-complete", "non-distributed-complete",
                     "distributed-incomplete")) {
      TestUtil.assertMatchesBrute(df, SkylineData.storeSalesDims.take(3), algo,
        incomplete = algo == "distributed-incomplete")
    }
  }

  test("store_sales incomplete: distributed-incomplete matches brute force") {
    val df = SkylineData.storeSales(spark, 1500, nullFraction = 0.2)
    TestUtil.assertMatchesBrute(df, SkylineData.storeSalesDims.drop(2),
      "distributed-incomplete", incomplete = true)
  }

  // ---- DISTINCT --------------------------------------------------------

  test("DISTINCT keeps one tuple per dimension combination (complete)") {
    import spark.implicits._
    // (9,4) is incomparable with (10,5): cheaper but lower-rated
    val df = Seq((1, 10, 5), (2, 10, 5), (3, 10, 5), (4, 9, 4))
      .toDF("id", "price", "rating")
    val dims = Seq("price" -> Min, "rating" -> Max)
    for (algo <- Seq("distributed-complete", "non-distributed-complete")) {
      TestUtil.assertMatchesBrute(df, dims, algo, incomplete = false, distinct = true)
      val n = TestUtil.skylineWith(df, dims, algo, distinct = true).rows.size
      assert(n == 2, s"$algo: one representative per combination expected")
    }
  }

  test("DISTINCT on incomplete data") {
    import spark.implicits._
    val df = Seq(
      (1, Some(10), Some(5)), (2, Some(10), Some(5)),
      (3, None, Some(7)), (4, None, Some(7)),
    ).toDF("id", "price", "rating")
    val dims = Seq("price" -> Min, "rating" -> Max)
    TestUtil.assertMatchesBrute(df, dims, "distributed-incomplete",
      incomplete = true, distinct = true)
  }

  // ---- incomplete-data pitfalls (§3, Appendix A) -----------------------

  test("paper cycle: skyline of {a,b,c} with cyclic dominance is empty") {
    import spark.implicits._
    val df = Seq(
      (Option(1), Option.empty[Int], Option(10)),
      (Option(3), Option(2), Option.empty[Int]),
      (Option.empty[Int], Option(5), Option(3)),
    ).toDF("d1", "d2", "d3")
    val dims = Seq("d1" -> Min, "d2" -> Min, "d3" -> Min)
    assert(TestUtil.skylineWith(df, dims, "distributed-incomplete").rows.isEmpty)
    assert(TestUtil.skylineWith(df, dims, "auto").rows.isEmpty)
  }

  test("auto mode picks the incomplete algorithm for nullable dimensions") {
    val ns = nodes(airbnbI.skyline(smin("price"), smax("accommodates")))
    assert(skylineNodes(ns).keySet == Set("IncompleteLocalSkyline", "IncompleteGlobalSkyline"))
  }

  test("auto mode picks the complete algorithm for non-nullable dimensions") {
    val ns = nodes(airbnbC.skyline(smin("price"), smax("accommodates")))
    assert(skylineNodes(ns).keySet == Set("LocalSkyline", "GlobalSkyline"))
  }

  test("COMPLETE keyword forces the complete algorithm on nullable schema") {
    val ns = nodes(
      airbnbI.na.drop().skylineComplete(smin("price"), smax("accommodates")))
    assert(skylineNodes(ns).contains("GlobalSkyline"))
  }

  test("COMPLETE on actually-complete-but-nullable data is correct") {
    val df = airbnbI.na.drop("any", SkylineData.airbnbDims.map(_._1)).cache()
    try {
      val got = df.skylineComplete(
        smin("price"), smax("accommodates"), smax("bedrooms")).collect().toSeq
      val exp = repro.reference.BruteForce.skyline(
        df.collect().toSeq, TestUtil.dimIndices(df, dims3), incomplete = false)
      TestUtil.assertSameRows(got, exp)
    } finally { df.unpersist(); () }
  }

  // ---- plan shapes (Listing 8) -----------------------------------------

  test("distributed-complete plans local + global pair") {
    val run = TestUtil.skylineWith(airbnbC, dims3, "distributed-complete")
    val global = skylineNodes(run.nodes).get("GlobalSkyline")
    assert(global.nonEmpty)
    assert(skylineNodes(TestUtil.allPhysicalNodes(global.get)).contains("LocalSkyline"),
      "local skyline must feed the global one")
  }

  test("non-distributed-complete plans global only") {
    val ns = TestUtil.skylineWith(airbnbC, dims3, "non-distributed-complete").nodes
    assert(skylineNodes(ns).keySet == Set("GlobalSkyline"))
  }

  test("distributed-incomplete plans bitmap local + deferred global pair") {
    val ns = TestUtil.skylineWith(airbnbI, dims3, "distributed-incomplete").nodes
    assert(skylineNodes(ns).keySet == Set("IncompleteLocalSkyline", "IncompleteGlobalSkyline"))
  }

  test("each BNL skyline node requires the distribution of its role") {
    val complete = TestUtil.skylineWith(airbnbC, dims3, "distributed-complete").nodes
    val incomplete = TestUtil.skylineWith(airbnbI, dims3, "distributed-incomplete").nodes
    val byName = skylineNodes(complete ++ incomplete)
    assert(byName.keySet == Set("LocalSkyline", "GlobalSkyline",
      "IncompleteLocalSkyline", "IncompleteGlobalSkyline"))
    assert(byName("LocalSkyline").requiredChildDistribution == Seq(UnspecifiedDistribution))
    assert(byName("GlobalSkyline").requiredChildDistribution == Seq(AllTuples))
    assert(byName("IncompleteGlobalSkyline").requiredChildDistribution == Seq(AllTuples))
    val bitmapLocal = byName("IncompleteLocalSkyline")
    bitmapLocal.requiredChildDistribution match {
      case Seq(ClusteredDistribution(exprs, _, _)) =>
        assert(exprs == bitmapLocal.dimensions.map(d => IsNull(d.child)))
        assert(exprs.length == 3)
      case other => fail(s"IncompleteLocalSkyline requires $other")
    }
    // the non-distributed plan is the complete global node on its own
    val alone = skylineNodes(
      TestUtil.skylineWith(airbnbC, dims3, "non-distributed-complete").nodes)
    assert(alone("GlobalSkyline").requiredChildDistribution == Seq(AllTuples))
  }

  test("the distributed complete global node merges; the non-distributed one streams BNL") {
    val distributed = skylineNodes(TestUtil.skylineWith(airbnbC, dims3, "distributed-complete").nodes)
    assert(distributed("GlobalSkyline").merge && !distributed("LocalSkyline").merge)
    val alone = skylineNodes(
      TestUtil.skylineWith(airbnbC, dims3, "non-distributed-complete").nodes)
    assert(!alone("GlobalSkyline").merge)
    val incomplete = skylineNodes(
      TestUtil.skylineWith(airbnbI, dims3, "distributed-incomplete").nodes)
    assert(incomplete.values.forall(!_.merge))
  }

  test("distributed-complete merges anti-correlated local skylines like BruteForce (SQL and API)") {
    import spark.implicits._
    val df = TestUtil.antiCorrelated(1200, 4, seed = 5).zipWithIndex
      .map { case (p, id) => (id, p(0), p(1), p(2), p(3)) }
      .toDF("id", "x0", "x1", "x2", "x3").repartition(4)
    val dims = Seq("x0" -> Min, "x1" -> Max, "x2" -> Min, "x3" -> Min)
    TestUtil.assertMatchesBrute(df, dims, "distributed-complete", incomplete = false)
    TestUtil.assertMatchesBrute(df, dims, "distributed-complete", incomplete = false, distinct = true)
    val cached = df.cache()
    try {
      cached.createOrReplaceTempView("anti4")
      val rows = TestUtil.withAlgorithm(spark, "distributed-complete") {
        spark.sql("SELECT * FROM anti4 SKYLINE OF x0 MIN, x1 MAX, x2 MIN, x3 MIN").collect().toSeq
      }
      val expected = BruteForce.skyline(
        cached.collect().toSeq, TestUtil.dimIndices(cached, dims), incomplete = false)
      assert(expected.size > 2 * SkylineAlgorithms.MergeLeafSize)
      TestUtil.assertSameRows(rows, expected, "SQL")
    } finally { cached.unpersist(); () }
  }

  test("local skyline preserves the number of input partitions") {
    val df = airbnbC.repartition(7)
    val run = TestUtil.skylineWith(df, dims3, "distributed-complete")
    val local = skylineNodes(run.nodes)("LocalSkyline")
    assert(local.execute().getNumPartitions == 7)
    // the incomplete local node keeps the partitions of its IsNull exchange
    val confs = Seq("spark.sql.shuffle.partitions" -> "7",
      "spark.sql.adaptive.coalescePartitions.enabled" -> "false")
    val previous = confs.map { case (k, _) => k -> spark.conf.getOption(k) }
    confs.foreach { case (k, v) => spark.conf.set(k, v) }
    try {
      val run = TestUtil.skylineWith(airbnbI, dims3, "distributed-incomplete")
      val bitmapLocal = skylineNodes(run.nodes)("IncompleteLocalSkyline")
      assert(bitmapLocal.child.execute().getNumPartitions == 7)
      assert(bitmapLocal.execute().getNumPartitions == 7)
    } finally previous.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None)    => spark.conf.unset(k)
    }
  }

  test("skyline output schema equals input schema") {
    val out = airbnbC.skyline(smin("price"), smax("beds"))
    assert(out.schema == airbnbC.schema)
  }

  test("empty input yields empty skyline in every algorithm") {
    val empty = airbnbC.where("price < 0")
    for (algo <- Seq("distributed-complete", "non-distributed-complete",
                     "distributed-incomplete")) {
      assert(TestUtil.skylineWith(empty, dims2, algo).rows.isEmpty, algo)
    }
  }

  test("single row survives in every algorithm") {
    val one = airbnbC.limit(1)
    for (algo <- Seq("distributed-complete", "non-distributed-complete",
                     "distributed-incomplete")) {
      assert(TestUtil.skylineWith(one, dims6, algo).rows.size == 1, algo)
    }
  }

  test("all-identical rows: all survive without DISTINCT, one with") {
    import spark.implicits._
    val df = Seq.fill(20)((5, 5)).toDF("a", "b")
    val dims = Seq("a" -> Min, "b" -> Max)
    assert(TestUtil.skylineWith(df, dims, "distributed-complete").rows.size == 20)
    assert(TestUtil.skylineWith(df, dims, "distributed-complete", distinct = true).rows.size == 1)
  }

  test("string dimension skyline") {
    import spark.implicits._
    val df = Seq(("a", 1), ("b", 1), ("a", 2)).toDF("s", "v")
    val out = TestUtil.skylineWith(df, Seq("s" -> Min, "v" -> Max),
      "distributed-complete").rows.map(r => (r.getString(0), r.getInt(1))).toSet
    assert(out == Set(("a", 2)))
  }

  test("date dimension skyline") {
    import spark.implicits._
    import java.sql.Date
    val df = Seq(
      (Date.valueOf("2020-01-01"), 1),
      (Date.valueOf("2021-01-01"), 2),
      (Date.valueOf("2020-06-01"), 2),
    ).toDF("d", "v")
    TestUtil.assertMatchesBrute(df, Seq("d" -> Min, "v" -> Max),
      "distributed-complete", incomplete = false)
  }

  test("expression dimension (arithmetic over columns)") {
    import spark.implicits._
    val df = Seq((10, 2), (6, 8), (4, 4)).toDF("a", "b")
    val out = df.skyline(smin(df("a") + df("b")))
    assert(out.collect().map(r => (r.getInt(0), r.getInt(1))).toSet == Set((4, 4)))
    val single = nodes(out).collect { case n: SingleDimSkylineExec => n.simpleString(25) }
    assert(single.size == 1 && single.head.endsWith("keys=long[1]"), single)
  }

  test("forced incomplete algorithm on complete data is correct (slow path)") {
    TestUtil.assertMatchesBrute(airbnbC, dims3, "distributed-incomplete",
      incomplete = true)
  }

  // ---- key path: encoded long keys or generic values ------------------

  test("EXPLAIN shows the key path of every BNL skyline node") {
    val complete = TestUtil.skylineWith(airbnbC, dims3, "distributed-complete").nodes
    val incomplete = TestUtil.skylineWith(airbnbI, dims3, "distributed-incomplete").nodes
    val bnlNodes = skylineNodes(complete ++ incomplete).values
    assert(bnlNodes.map(_.nodeName).toSet == Set("LocalSkyline", "GlobalSkyline",
      "IncompleteLocalSkyline", "IncompleteGlobalSkyline"))
    bnlNodes.foreach(n => assert(n.simpleString(25).endsWith("keys=long[3]"), n.simpleString(25)))
  }

  test("string and decimal dimensions take the generic path with the same results") {
    import spark.implicits._
    val rnd = new scala.util.Random(21)
    def orNull[A](a: A): Option[A] = if (rnd.nextDouble() < 0.1) None else Some(a)
    val complete = Seq.fill(300)((rnd.nextInt(1000), s"k${rnd.nextInt(40)}",
        BigDecimal(rnd.nextInt(5000), 2), rnd.nextInt(20)))
      .toDF("id", "s", "dec", "v")
    // the same shape with about 10% nulls in the string and decimal columns
    val withNulls = Seq.fill(300)((rnd.nextInt(1000), orNull(s"k${rnd.nextInt(40)}"),
        orNull(BigDecimal(rnd.nextInt(5000), 2)), rnd.nextInt(20)))
      .toDF("id", "s", "dec", "v")
    for (df <- Seq(complete, withNulls);
         dims <- Seq(Seq("s" -> Min, "v" -> Max), Seq("dec" -> Max, "v" -> Min),
                     Seq("s" -> Diff, "dec" -> Min, "v" -> Max),
                     Seq("v" -> Min, "s" -> Diff, "dec" -> Max), Seq("dec" -> Max))) {
      for (algo <- Seq("distributed-complete", "distributed-incomplete")) {
        val run = TestUtil.skylineWith(df, dims, algo)
        assert(run.nodes.exists(_.simpleString(25).endsWith("keys=generic")), s"$dims $algo")
        TestUtil.assertMatchesBrute(df, dims, algo, incomplete = algo == "distributed-incomplete")
      }
    }
  }

  test("typed edge values: every algorithm matches brute force (NaN, ±0.0, extremes, nulls)") {
    import org.apache.spark.sql.Row
    import org.apache.spark.sql.types._
    import scala.jdk.CollectionConverters._
    val rnd = new scala.util.Random(22)
    def pick[A](edges: Seq[A], regular: => A): Any = {
      val r = rnd.nextDouble()
      if (r < 0.1) null else if (r < 0.3) edges(rnd.nextInt(edges.size)) else regular
    }
    val schema = StructType(Seq(
      StructField("id", IntegerType, nullable = false),
      StructField("b", ByteType), StructField("sh", ShortType), StructField("i", IntegerType),
      StructField("l", LongType), StructField("f", FloatType), StructField("d", DoubleType),
      StructField("bool", BooleanType), StructField("dt", DateType),
      StructField("ts", TimestampType)))
    val rows = (0 until 400).map { id =>
      Row(id,
        pick(Seq(Byte.MinValue, Byte.MaxValue), (rnd.nextInt(6) - 3).toByte),
        pick(Seq(Short.MinValue, Short.MaxValue), rnd.nextInt(6).toShort),
        pick(Seq(Int.MinValue, Int.MaxValue), rnd.nextInt(6) - 3),
        pick(Seq(Long.MinValue, Long.MaxValue, Long.MaxValue - 1), rnd.nextInt(6).toLong),
        pick(Seq(Float.NaN, -0.0f, 0.0f, Float.PositiveInfinity, Float.NegativeInfinity),
          rnd.nextInt(6).toFloat / 2),
        pick(Seq(Double.NaN, -0.0, 0.0, Double.PositiveInfinity, Double.NegativeInfinity,
          Double.MaxValue, Double.MinValue), rnd.nextInt(6).toDouble / 2 - 1),
        pick(Seq(true, false), rnd.nextBoolean()),
        pick(Seq(java.sql.Date.valueOf("1900-01-01")),
          java.sql.Date.valueOf(s"2020-01-0${1 + rnd.nextInt(5)}")),
        pick(Seq(java.sql.Timestamp.valueOf("1900-01-01 00:00:00")),
          java.sql.Timestamp.valueOf(s"2020-01-01 00:00:0${rnd.nextInt(5)}")))
    }
    val df = spark.createDataFrame(rows.asJava, schema).cache()
    try {
      val names = schema.fieldNames.drop(1).toSeq
      val input = df.collect().toSeq
      val algos = Seq("distributed-complete" -> false, "non-distributed-complete" -> false,
        "distributed-incomplete" -> true)
      for (trial <- 1 to 6) {
        val dims = rnd.shuffle(names).take(2 + rnd.nextInt(3))
          .map(n => n -> Seq(Min, Max, Diff)(rnd.nextInt(3)))
        val fixed = if (dims.forall(_._2 == Diff)) dims.updated(0, dims.head._1 -> Min) else dims
        for ((algo, incomplete) <- algos) {
          val run = TestUtil.skylineWith(df, fixed, algo, complete = !incomplete)
          assert(run.nodes.exists(_.simpleString(25).contains("keys=long[")), s"$fixed $algo")
          val expected = BruteForce.skyline(
            input, TestUtil.dimIndices(df, fixed), incomplete)
          assert(run.rows.map(_.getInt(0)).sorted == expected.map(_.getInt(0)).sorted,
            s"trial $trial $fixed $algo")
        }
      }
      // every column as one MIN and one MAX dimension: the single-dimension
      // node, whose complete mode keeps the null rows of a MIN
      for (name <- names; dir <- Seq(Min, Max); (algo, incomplete) <- algos) {
        val dims = Seq(name -> dir)
        val run = TestUtil.skylineWith(df, dims, algo, complete = !incomplete)
        assert(run.nodes.exists(_.isInstanceOf[SingleDimSkylineExec]), s"$dims $algo")
        val expected = BruteForce.skyline(input, TestUtil.dimIndices(df, dims), incomplete)
        assert(run.rows.map(_.getInt(0)).sorted == expected.map(_.getInt(0)).sorted,
          s"$dims $algo")
      }
    } finally { df.unpersist(); () }
  }

  // ---- loud limits -----------------------------------------------------

  test("unknown spark.sql.skyline.algorithm values are rejected with the allowed list") {
    val e = intercept[IllegalArgumentException] {
      TestUtil.skylineWith(airbnbC, dims2, "distributed-complet")
    }
    assert(e.getMessage.contains("'distributed-complet'"))
    assert(e.getMessage.contains(
      "auto | distributed-complete | non-distributed-complete | distributed-incomplete"))
  }

  test("an incomplete skyline over 65 dimensions fails, naming the 64-dimension limit") {
    import org.apache.spark.sql.functions.{col, lit, when}
    val base = spark.range(3)
    val wide = base.select(col("id") +: (0 until 65).map(i =>
      when(col("id") === lit(i % 3), lit(null)).otherwise(col("id") + i).as(s"c$i")): _*)
    val dims = (0 until 65).map(i => s"c$i" -> Min)
    val e = intercept[IllegalArgumentException] {
      TestUtil.skylineWith(wide, dims, "auto")
    }
    assert(e.getMessage.contains("at most 64 dimensions"))
    // COMPLETE has no bitmaps and no limit
    assert(TestUtil.skylineWith(wide.na.drop(), dims, "auto", complete = true).rows.isEmpty)
  }

  test("33 nullable dimensions: null at dim 0 and null at dim 32 are different bitmaps") {
    import org.apache.spark.sql.Row
    import org.apache.spark.sql.types._
    import scala.jdk.CollectionConverters._
    // a dominates b, b dominates c, a and c incomparable: SKY = {a}; if a and
    // b shared a bitmap group the local step would drop b before it could
    // eliminate c
    def tuple(id: Int, d0: Any, d1: Int, d32: Any): Row =
      Row.fromSeq(id +: (0 until 33).map(i =>
        if (i == 0) d0 else if (i == 1) d1 else if (i == 32) d32 else 0))
    val schema = StructType(StructField("id", IntegerType, nullable = false) +:
      (0 until 33).map(i => StructField(s"c$i", IntegerType)))
    val df = spark.createDataFrame(
      Seq(tuple(0, null, 1, 5), tuple(1, 0, 2, null), tuple(2, null, 3, 0)).asJava, schema)
    val dims = (0 until 33).map(i => s"c$i" -> Min)
    // one shuffle partition: every bitmap group meets in the same local task
    val previous = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "1")
    try {
      for (algo <- Seq("auto", "distributed-incomplete")) {
        TestUtil.assertMatchesBrute(df, dims, algo, incomplete = true)
        assert(TestUtil.skylineWith(df, dims, algo).rows.map(_.getInt(0)) == Seq(0), algo)
      }
    } finally spark.conf.set("spark.sql.shuffle.partitions", previous)
  }

  test("many partitions vs one partition give the same skyline") {
    val base = SkylineData.airbnb(spark, 3000)
    val a = TestUtil.skylineWith(base.repartition(16), dims3, "distributed-complete")
    val b = TestUtil.skylineWith(base.coalesce(1), dims3, "distributed-complete")
    TestUtil.assertSameRows(a.rows, b.rows)
  }

  test("a nondeterministic dimension: rand(7) draws the same values as an explicit rand(7) AS r") {
    import org.apache.spark.sql.Row
    import org.apache.spark.sql.functions.rand
    // Spark pulls rand(7) out into a Project below the skyline; there is no
    // shuffle under that Project, so rand(7) draws the same values in every
    // query
    val base = spark.range(0, 2000, 1, 4).selectExpr("id", "(id * 7919) % 1000 AS a")
    base.createOrReplaceTempView("nd_t")
    val withR = spark.sql("SELECT id, a, rand(7) AS r FROM nd_t").collect().toSeq
    def ids(rows: Seq[Row]): Seq[Long] = rows.map(_.getLong(0)).sorted
    def brute(dims: Seq[(Int, Direction)]): Seq[Long] =
      ids(BruteForce.skyline(withR, dims, incomplete = false))
    for (algo <- Seq("auto", "distributed-complete", "distributed-incomplete")) {
      TestUtil.withAlgorithm(spark, algo) {
        for ((dims, explicit, bruteDims) <- Seq(
               ("rand(7) MIN, a MIN", "r MIN, a MIN", Seq(2 -> Min, 1 -> Min)),
               ("rand(7) MAX", "r MAX", Seq(2 -> Max)))) {
          val got = ids(spark.sql(s"SELECT id, a FROM nd_t SKYLINE OF $dims").collect().toSeq)
          val viaR = ids(spark.sql(
            s"SELECT * FROM (SELECT id, a, rand(7) AS r FROM nd_t) SKYLINE OF $explicit").collect().toSeq)
          assert(got.nonEmpty && got == viaR, s"$algo $dims")
          assert(got == brute(bruteDims), s"$algo $dims")
        }
        val api = ids(base.skyline(smin(rand(7)), smin("a")).collect().toSeq)
        assert(api == brute(Seq(2 -> Min, 1 -> Min)), s"$algo API")
      }
    }
  }
}
