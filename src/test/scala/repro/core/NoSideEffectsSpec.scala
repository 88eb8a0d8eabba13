package repro.core

import repro.{Oracle, SparkSpec, SynthData}

/** §5.9: the skyline integration must have no side effects on ordinary
  * query processing. Representative TPC-H-lite queries run through the
  * extended session and are diffed against DuckDB.
  */
class NoSideEffectsSpec extends SparkSpec {

  private lazy val li = SynthData.lineitem(spark, sf = 0.002).cache()
  private lazy val orders = SynthData.orders(spark, sf = 0.002).cache()
  private lazy val cust = SynthData.customer(spark, sf = 0.02).cache()

  test("aggregation query is unaffected") {
    li.createOrReplaceTempView("nse_li")
    val sparkDf = spark.sql(
      """SELECT l_returnflag, CAST(count(1) AS STRING) AS cnt
        |FROM nse_li GROUP BY l_returnflag""".stripMargin)
    Oracle.assertEquivalent(
      sparkDf,
      "SELECT l_returnflag, CAST(count(1) AS VARCHAR) AS cnt FROM li GROUP BY l_returnflag",
      "li" -> li)
  }

  test("join query is unaffected") {
    orders.createOrReplaceTempView("nse_o")
    cust.createOrReplaceTempView("nse_c")
    val sparkDf = spark.sql(
      """SELECT c_mktsegment, count(1) AS cnt FROM nse_o
        |JOIN nse_c ON o_custkey = c_custkey GROUP BY c_mktsegment""".stripMargin)
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT c_mktsegment, CAST(count(1) AS VARCHAR) AS cnt FROM o
        |JOIN c ON o_custkey = c_custkey GROUP BY c_mktsegment""".stripMargin,
      "o" -> orders, "c" -> cust)
  }

  test("filter + order + limit query is unaffected") {
    orders.createOrReplaceTempView("nse_o2")
    val got = spark.sql(
      """SELECT o_orderkey FROM nse_o2 WHERE o_orderstatus = 'O'
        |ORDER BY o_orderkey LIMIT 10""".stripMargin)
      .collect().map(_.getLong(0)).toSeq
    val exp = orders.where("o_orderstatus = 'O'")
      .orderBy("o_orderkey").limit(10).collect().map(_.getLong(0)).toSeq
    assert(got == exp)
  }

  test("correlated NOT EXISTS subqueries still work (the reference rewrite shape)") {
    import spark.implicits._
    Seq((1, 5), (2, 3), (3, 3)).toDF("id", "v").createOrReplaceTempView("nse_t")
    val out = spark.sql(
      """SELECT id FROM nse_t o WHERE NOT EXISTS (
        |  SELECT 1 FROM nse_t i WHERE i.v < o.v)""".stripMargin)
    assert(out.collect().map(_.getInt(0)).toSet == Set(2, 3))
  }

  test("window functions are unaffected") {
    import spark.implicits._
    Seq((1, "a", 10), (2, "a", 20), (3, "b", 30)).toDF("id", "g", "v")
      .createOrReplaceTempView("nse_w")
    val out = spark.sql(
      "SELECT id, rank() OVER (PARTITION BY g ORDER BY v) AS r FROM nse_w")
    assert(out.collect().map(r => (r.getInt(0), r.getInt(1))).toSet ==
      Set((1, 1), (2, 2), (3, 1)))
  }

  test("CTEs are unaffected") {
    val out = spark.sql(
      "WITH x AS (SELECT 1 AS a UNION ALL SELECT 2) SELECT sum(a) AS s FROM x")
    assert(out.collect().head.getLong(0) == 3)
  }

  test("INSERT-style DDL/DML paths are unaffected (CREATE VIEW)") {
    spark.sql("CREATE OR REPLACE TEMP VIEW nse_v AS SELECT 41 + 1 AS a")
    assert(spark.sql("SELECT a FROM nse_v").collect().head.getInt(0) == 42)
  }

  test("queries containing the word skyline as identifier still parse") {
    import spark.implicits._
    Seq((1, 2)).toDF("skyline", "x").createOrReplaceTempView("nse_s")
    assert(spark.sql("SELECT skyline FROM nse_s").collect().head.getInt(0) == 1)
  }

  test("skyline only inside a comment or a string parses as without the extension") {
    val plain = new org.apache.spark.sql.execution.SparkSqlParser()
    for (q <- Seq(
        "SELECT 1 /* skyline of x min */",
        "SELECT x FROM t -- SKYLINE OF x MIN",
        "SELECT 'skyline of x min', x FROM t WHERE y = 'SKYLINE OF y MAX'")) {
      assert(spark.sessionState.sqlParser.parsePlan(q) == plain.parsePlan(q), q)
    }
  }
}
