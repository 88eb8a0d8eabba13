package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec, SynthData}
import repro.core.api._
import repro.data.SkylineData
import repro.reference.ReferenceSkyline

/** End-to-end correctness against the DuckDB oracle (§5.9): the integrated
  * skyline must return exactly the rows of the plain-SQL `NOT EXISTS`
  * rewrite executed by an independent engine.
  *
  * All columns are staged as VARCHAR in DuckDB, so the rewrite casts the
  * compared dimensions to DOUBLE and the Spark side is cast to strings for
  * the row diff.
  */
class OracleEndToEndSpec extends SparkSpec {

  /** Diff a forced-algorithm skyline of `input` against DuckDB running the
    * null-aware rewrite (sound for complete and incomplete data alike).
    */
  private def checkAgainstOracle(
      input: DataFrame,
      dims: Seq[(String, Direction)],
      algorithm: String): Unit = {
    val cached = input.cache()
    try {
      val cols = cached.columns.toSeq
      val sql = ReferenceSkyline.rewrite("t", cols, dims, nullAware = true,
        castTo = Some("DOUBLE"))
      TestUtil.withAlgorithm(spark, algorithm) {
        val sky = cached.skylineOf(distinct = false, complete = false,
          dims.map { case (n, d) => SkylineColumn(cached(n), d) })
        val asStrings = sky.select(cols.map(c => col(c).cast("string").as(c)): _*)
        Oracle.assertEquivalent(asStrings, sql, "t" -> cached)
      }
    } finally { cached.unpersist(); () }
  }

  // ---- simple relations, all algorithms --------------------------------

  for (algo <- Seq("distributed-complete", "non-distributed-complete",
                   "distributed-incomplete")) {
    test(s"oracle: $algo on complete Airbnb-lite, 3 dims") {
      checkAgainstOracle(SkylineData.airbnb(spark, 800),
        SkylineData.airbnbDims.take(3), algo)
    }
  }

  test("oracle: distributed-incomplete on incomplete Airbnb-lite") {
    checkAgainstOracle(SkylineData.airbnb(spark, 800, nullFraction = 0.2),
      SkylineData.airbnbDims.drop(2), "distributed-incomplete")
  }

  test("oracle: auto on incomplete store_sales-lite, 4 dims") {
    checkAgainstOracle(SkylineData.storeSales(spark, 600, nullFraction = 0.15),
      SkylineData.storeSalesDims.take(4), "auto")
  }

  test("oracle: all 6 store_sales dims, complete") {
    checkAgainstOracle(SkylineData.storeSales(spark, 600),
      SkylineData.storeSalesDims, "distributed-complete")
  }

  test("oracle: single-dimension skyline (optimized path)") {
    checkAgainstOracle(SkylineData.airbnb(spark, 800),
      SkylineData.airbnbDims.take(1), "auto")
  }

  test("oracle: single-dimension skyline on incomplete data") {
    checkAgainstOracle(SkylineData.airbnb(spark, 800, nullFraction = 0.25),
      Seq(SkylineData.airbnbDims.last), "auto")
  }

  test("oracle: distributed-complete merges string and decimal dimensions (generic keys)") {
    import spark.implicits._
    // anti-correlated under (MIN, MAX, MIN), so the union of the local
    // skylines exceeds the merge's leaf size and the pivot step runs on
    // generic keys
    def dec(x: Double) = BigDecimal(x).setScale(3, BigDecimal.RoundingMode.HALF_UP)
    val df = TestUtil.antiCorrelated(1500, 3, seed = 41).zipWithIndex
      .map { case (p, id) => (id, f"s${(p(0) * 10000).round}%05d", dec(1 - p(1)), dec(p(2))) }
      .toDF("id", "s", "d1", "d2").repartition(4).cache()
    try {
      val dims = Seq("s" -> Direction.Min, "d1" -> Direction.Max, "d2" -> Direction.Min)
      val run = TestUtil.skylineWith(df, dims, "distributed-complete")
      val global = run.nodes.collect { case s: physical.SkylineExec if s.merge => s }
      assert(global.size == 1 && global.head.simpleString(25).endsWith("keys=generic"))
      assert(run.rows.size > SkylineAlgorithms.MergeLeafSize, run.rows.size)
      // DuckDB holds every column as VARCHAR: cast the decimals for the
      // comparison only, and compare the strings as they are
      val sql = ReferenceSkyline.rewrite(
        "(SELECT *, CAST(d1 AS DECIMAL(10, 3)) AS n1, CAST(d2 AS DECIMAL(10, 3)) AS n2 FROM t)",
        df.columns.toSeq, Seq("s" -> Direction.Min, "n1" -> Direction.Max, "n2" -> Direction.Min),
        nullAware = false)
      TestUtil.withAlgorithm(spark, "distributed-complete") {
        val sky = df.skyline(dims.map { case (n, d) => SkylineColumn(df(n), d) }: _*)
        Oracle.assertEquivalent(sky.select(df.columns.toSeq.map(c => col(c).cast("string").as(c)): _*),
          sql, "t" -> df)
      }
    } finally { df.unpersist(); () }
  }

  // ---- skylines over TPC-H-lite query results --------------------------

  test("oracle: skyline over a filtered TPC-H-lite lineitem") {
    val li = SynthData.lineitem(spark, sf = 0.002)
      .where("l_quantity > 10")
      .select("l_orderkey", "l_quantity", "l_extendedprice", "l_discount")
    checkAgainstOracle(li,
      Seq("l_extendedprice" -> Direction.Min, "l_discount" -> Direction.Max),
      "distributed-complete")
  }

  test("oracle: skyline over an aggregated TPC-H-lite query") {
    val orders = SynthData.orders(spark, sf = 0.002)
    orders.createOrReplaceTempView("oe_orders")
    val agg = spark.sql(
      """SELECT o_custkey, count(1) AS cnt, max(o_totalprice) AS maxprice
        |FROM oe_orders GROUP BY o_custkey""".stripMargin)
    checkAgainstOracle(agg,
      Seq("cnt" -> Direction.Max, "maxprice" -> Direction.Min), "auto")
  }

  test("oracle: skyline over a join of TPC-H-lite tables") {
    val cust = SynthData.customer(spark, sf = 0.02)
    val orders = SynthData.orders(spark, sf = 0.002)
    val joined = orders.join(cust, orders("o_custkey") === cust("c_custkey"))
      .select("o_orderkey", "o_totalprice", "c_acctbal")
    checkAgainstOracle(joined,
      Seq("o_totalprice" -> Direction.Min, "c_acctbal" -> Direction.Max),
      "distributed-complete")
  }

  // ---- SQL-string path against the oracle ------------------------------

  test("oracle: SQL skyline string matches DuckDB rewrite") {
    val df = SkylineData.airbnb(spark, 500).cache()
    try {
      df.createOrReplaceTempView("oe_air")
      val sky = spark.sql(
        """SELECT * FROM oe_air
          |SKYLINE OF price MIN, accommodates MAX, bedrooms MAX""".stripMargin)
      val cols = df.columns.toSeq
      val sql = ReferenceSkyline.rewrite("t", cols,
        SkylineData.airbnbDims.take(3), nullAware = true, castTo = Some("DOUBLE"))
      Oracle.assertEquivalent(
        sky.select(cols.map(c => col(c).cast("string").as(c)): _*), sql, "t" -> df)
    } finally { df.unpersist(); () }
  }

  test("oracle: reference rewrite run on Spark equals integrated skyline") {
    val df = SkylineData.airbnb(spark, 500).cache()
    try {
      df.createOrReplaceTempView("oe_air2")
      val dims = SkylineData.airbnbDims.take(3)
      val viaRef = spark.sql(
        ReferenceSkyline.rewrite("oe_air2", df.columns.toSeq, dims, nullAware = false))
      val viaSky = df.skyline(dims.map { case (n, d) => SkylineColumn(df(n), d) }: _*)
      TestUtil.assertSameRows(viaSky.collect().toSeq, viaRef.collect().toSeq)
    } finally { df.unpersist(); () }
  }
}
