package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import repro.core.api._
import repro.reference.BruteForce

/** Shared helpers for the skyline test suites. */
object TestUtil {

  /** All physical nodes of an executed plan, descending through AQE query
    * stages and the adaptive wrapper (plain `collect` stops at stage
    * boundaries).
    */
  def allPhysicalNodes(plan: org.apache.spark.sql.execution.SparkPlan)
      : Seq[org.apache.spark.sql.execution.SparkPlan] = {
    import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
    plan +: (plan match {
      case a: AdaptiveSparkPlanExec => allPhysicalNodes(a.executedPlan)
      case q: QueryStageExec        => allPhysicalNodes(q.plan)
      case other                    => other.children.flatMap(allPhysicalNodes)
    })
  }

  /** Execute `df` and return every physical node, AQE-transparent. */
  def executedNodes(df: DataFrame): Seq[org.apache.spark.sql.execution.SparkPlan] = {
    df.collect()
    allPhysicalNodes(df.queryExecution.executedPlan)
  }

  /** Seeded anti-correlated points in [0, 1]^dims (Börzsönyi, Kossmann and
    * Stocker, "The Skyline Operator", ICDE 2001): each starts on the
    * diagonal near 0.5 and random amounts move between neighbouring
    * coordinates, so the coordinate sum stays near dims / 2 and most points
    * are mutually incomparable. A point leaving the cube is drawn again.
    */
  def antiCorrelated(n: Int, dims: Int, seed: Long): Seq[Array[Double]] = {
    val rnd = new scala.util.Random(seed)
    Seq.fill(n) {
      var x: Array[Double] = null
      while (x == null || !x.forall(c => c >= 0.0 && c <= 1.0)) {
        val v = 0.5 + 0.01 * rnd.nextGaussian()
        val l = math.max(0.0, math.min(v, 1.0 - v))
        x = Array.fill(dims)(v)
        for (i <- 0 until dims) {
          val h = -l + 2 * l * rnd.nextDouble()
          x(i) += h
          x((i + 1) % dims) -= h
        }
      }
      x
    }
  }

  /** Normalize a row for multiset comparison: all numerics as Double. */
  def norm(r: Row): Seq[Any] = r.toSeq.map {
    case n: Number => n.doubleValue()
    case x         => x
  }

  /** Multiset of normalized rows, canonically ordered. */
  def canon(rows: Seq[Row]): Seq[Seq[Any]] =
    rows.map(norm).sortBy(_.mkString("|"))

  def assertSameRows(got: Seq[Row], expected: Seq[Row], hint: String = ""): Unit = {
    val g = canon(got)
    val e = canon(expected)
    assert(g == e,
      s"$hint row sets differ (${g.size} vs ${e.size}):\n" +
        s"  only-got: ${g.diff(e).take(5)}\n  only-exp: ${e.diff(g).take(5)}")
  }

  /** Dimension (name, direction) list → (index, direction) for BruteForce. */
  def dimIndices(df: DataFrame, dims: Seq[(String, Direction)]): Seq[(Int, Direction)] =
    dims.map { case (n, d) => df.columns.indexWhere(_.equalsIgnoreCase(n)) -> d }

  /** Run `body` with the skyline algorithm conf forced; the conf must stay
    * set through *execution* (not just plan construction): AQE re-invokes
    * the planner strategies while the query runs.
    */
  def withAlgorithm[T](spark: org.apache.spark.sql.SparkSession, algorithm: String)
      (body: => T): T = {
    val previous = spark.conf.getOption(SkylineConf.Algorithm)
    spark.conf.set(SkylineConf.Algorithm, algorithm)
    try body
    finally previous match {
      case Some(v) => spark.conf.set(SkylineConf.Algorithm, v)
      case None    => spark.conf.unset(SkylineConf.Algorithm)
    }
  }

  /** A fully executed skyline run: result rows + all physical nodes. */
  final case class SkylineRun(rows: Seq[Row], nodes: Seq[org.apache.spark.sql.execution.SparkPlan])

  /** Execute the skyline with a forced algorithm and materialize rows and
    * the executed physical plan while the conf is still in force.
    */
  def skylineWith(
      df: DataFrame,
      dims: Seq[(String, Direction)],
      algorithm: String,
      distinct: Boolean = false,
      complete: Boolean = false): SkylineRun =
    withAlgorithm(df.sparkSession, algorithm) {
      val cols = dims.map { case (n, d) => SkylineColumn(df(n), d) }
      val out = df.skylineOf(distinct, complete, cols)
      val rows = out.collect().toSeq
      SkylineRun(rows, allPhysicalNodes(out.queryExecution.executedPlan))
    }

  /** Assert that a forced-algorithm skyline of `df` matches the definitional
    * brute-force oracle. Note the DataFrame is materialized once so both
    * sides see identical data.
    */
  def assertMatchesBrute(
      df: DataFrame,
      dims: Seq[(String, Direction)],
      algorithm: String,
      incomplete: Boolean,
      distinct: Boolean = false): Unit = {
    val cached = df.cache()
    try {
      val got = skylineWith(cached, dims, algorithm, distinct = distinct,
        complete = !incomplete).rows
      val expected = BruteForce.skyline(
        cached.collect().toSeq, dimIndices(cached, dims), incomplete, distinct)
      if (!distinct) {
        assertSameRows(got, expected, s"[$algorithm]")
      } else {
        // DISTINCT picks an arbitrary representative per dimension-value
        // combination; compare the combinations, not the full rows.
        val idx = dimIndices(cached, dims).map(_._1)
        val gotKeys = canon(got.map(r => Row.fromSeq(idx.map(r.get))))
        val expKeys = canon(expected.map(r => Row.fromSeq(idx.map(r.get))))
        assert(gotKeys == expKeys, s"[$algorithm] distinct combinations differ")
        // and every returned row must be an actual input row
        val all = canon(cached.collect().toSeq)
        assert(canon(got).forall(all.contains), s"[$algorithm] invented rows")
      }
    } finally { cached.unpersist(); () }
  }
}
