package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}
import repro.core.Direction
import repro.core.api._
import repro.data.SkylineData

/** How the oracle gets a query's result: the skyline of `from` (a view, or
  * SQL text giving the rows the query's skyline reduces) over `dims`,
  * projected to `output`.
  */
final case class OracleSpec(
    from: String,
    output: Seq[String],
    dims: Seq[(String, Direction)],
    nullAware: Boolean,
    distinct: Boolean = false,
    small: Boolean = false)

/** One query of a workload.
  *
  * @param sql       the SQL text of a SQL query, which traced runs parse on
  *                  their own; None for a DataFrame API query
  * @param dataFrame the query as a user submits it
  * @param plan      problems with the executed plan; empty when it is the
  *                  plan the workload is meant to exercise
  */
final case class Query(
    name: String,
    sql: Option[String],
    dataFrame: SparkSession => DataFrame,
    oracle: OracleSpec,
    plan: SparkPlan => Seq[String])

/** A set-up workload: cached inputs, registered views and its queries.
  *
  * @param queries    one round of the loop, in the seeded order; the cold
  *                   query is the first of `queries` by name, whatever the
  *                   seed, so it is the same query in every run
  * @param input      the main cached input (scan layer and kernel replays)
  * @param dims       skyline dimensions over `input` (kernel replays)
  * @param incomplete whether the operators take the incomplete path
  */
final case class Prepared(
    inputRows: Long,
    input: DataFrame,
    dims: Seq[(String, Direction)],
    incomplete: Boolean,
    queries: Seq[Query],
    cached: Seq[DataFrame]) {
  def release(): Unit = cached.foreach(_.unpersist(blocking = true))
  def coldQuery: Query = queries.minBy(_.name)
}

sealed trait Workload {
  def name: String
  def why: String
  /** Generate the inputs for `seed`, cache and materialize them, register
    * the views. `tiny` shrinks every input for the self-test.
    */
  def setup(spark: SparkSession, seed: Long, tiny: Boolean): Prepared
}

object Workloads {

  val all: Seq[Workload] = Seq(Indep6d, AntiCorr4d, Nulls6d, SqlMix)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(sys.error(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))

  private def nproc(spark: SparkSession): Int = spark.sparkContext.defaultParallelism

  private def materialize(df: DataFrame, view: String): DataFrame = {
    val cached = df.cache()
    cached.count()
    cached.createOrReplaceTempView(view)
    cached
  }

  private def skylineColumns(df: DataFrame, dims: Seq[(String, Direction)]): Seq[SkylineColumn] =
    dims.map { case (c, d) => SkylineColumn(df(c), d) }

  /** A DataFrame API skyline over the whole cached input, planned by `auto`,
    * checked against the `NOT EXISTS` rewrite.
    */
  private def apiQuery(
      name: String,
      view: String,
      columns: Seq[String],
      dims: Seq[(String, Direction)],
      incomplete: Boolean,
      plan: SparkPlan => Seq[String]): Query =
    Query(name, None,
      spark => {
        val in = spark.table(view)
        in.skyline(skylineColumns(in, dims): _*)
      },
      OracleSpec(view, columns, dims, incomplete),
      plan)

  /** Store_sales-like input, complete and non-nullable, six Table 2 dims. */
  object Indep6d extends Workload {
    val name = "indep-6d"
    val why = "local layer does nearly all the work; global gets ~1k rows and no input row crosses an exchange"
    def setup(spark: SparkSession, seed: Long, tiny: Boolean): Prepared = {
      val rows = if (tiny) 3000L else 500000L
      val in = materialize(SkylineData.storeSales(spark, rows, seed = seed), "indep_6d")
      require(in.rdd.getNumPartitions == nproc(spark), "input must sit in nproc partitions")
      val dims = SkylineData.storeSalesDims
      Prepared(rows, in, dims, incomplete = false,
        Seq(apiQuery("skyline", "indep_6d", in.columns.toSeq, dims, incomplete = false, Plans.completeDistributed)),
        Seq(in))
    }
  }

  /** Anti-correlated points, four MIN dims, complete. */
  object AntiCorr4d extends Workload {
    val name = "anticorr-4d"
    val why = "skyline is most of the input and the single global task takes most of the query"
    val dimCount = 4
    def setup(spark: SparkSession, seed: Long, tiny: Boolean): Prepared = {
      val n = if (tiny) 400 else 2500
      val pts = AntiCorrelated.points(n, dimCount, seed)
      val cols = (0 until dimCount).map(i => s"x$i")
      val schema = StructType(StructField("id", LongType, nullable = false) +:
        cols.map(StructField(_, DoubleType, nullable = false)))
      val rows = pts.indices.map(i => Row.fromSeq(i.toLong +: pts(i).toSeq))
      val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, nproc(spark)), schema)
      val in = materialize(df, "anticorr_4d")
      val dims = cols.map(_ -> Direction.Min)
      Prepared(n.toLong, in, dims, incomplete = false,
        Seq(apiQuery("skyline", "anticorr_4d", in.columns.toSeq, dims, incomplete = false, Plans.completeDistributed)),
        Seq(in))
    }
  }

  /** Store_sales-like input with 15% nulls in the last three dims. */
  object Nulls6d extends Workload {
    val name = "nulls-6d"
    val why = "incomplete path: every input row crosses the IsNull-bitmap exchange, the global step compares all pairs"
    def setup(spark: SparkSession, seed: Long, tiny: Boolean): Prepared = {
      val rows = if (tiny) 3000L else 150000L
      val in = materialize(
        SkylineData.storeSales(spark, rows, nullFraction = 0.15, seed = seed), "nulls_6d")
      require(in.rdd.getNumPartitions == nproc(spark), "input must sit in nproc partitions")
      val dims = SkylineData.storeSalesDims
      Prepared(rows, in, dims, incomplete = true,
        Seq(apiQuery("skyline", "nulls_6d", in.columns.toSeq, dims, incomplete = true, Plans.incompleteDistributed)),
        Seq(in))
    }
  }

  /** SQL text over small MusicBrainz-like tables (Appendix E). */
  object SqlMix extends Workload {
    val name = "sql-mix"
    val why = "only workload through the parser and rules; small input, so parse, analysis, planning and scheduling show"

    private val joined = "mb_recording r JOIN mb_meta m ON r.id = m.id"

    /** A SQL skyline query and the same query without its SKYLINE OF
      * clause, whose rows the oracle reduces.
      */
    private def sqlQuery(
        name: String,
        text: String,
        base: String,
        output: Seq[String],
        dims: Seq[(String, Direction)],
        nullAware: Boolean,
        distinct: Boolean = false,
        plan: SparkPlan => Seq[String] = Plans.anySkyline): Query =
      Query(name, Some(text), spark => spark.sql(text),
        OracleSpec(base, output, dims, nullAware, distinct, small = true), plan)

    private val queries: Seq[Query] = Seq(
      sqlQuery("groupby-having",
        s"""SELECT r.id, r.length, m.rating, m.rating_count, count(1) AS num_tracks
           |FROM $joined JOIN mb_track t ON t.recording = r.id
           |GROUP BY r.id, r.length, m.rating, m.rating_count
           |HAVING count(1) >= 2
           |SKYLINE OF rating MAX, rating_count MAX, length MIN, num_tracks MAX,
           |  min(position) MIN""".stripMargin,
        s"""SELECT r.id, r.length, m.rating, m.rating_count, count(1) AS num_tracks,
           |  min(t.position) AS min_position
           |FROM $joined JOIN mb_track t ON t.recording = r.id
           |GROUP BY r.id, r.length, m.rating, m.rating_count
           |HAVING count(1) >= 2""".stripMargin,
        Seq("id", "length", "rating", "rating_count", "num_tracks"),
        Seq("rating" -> Direction.Max, "rating_count" -> Direction.Max,
          "length" -> Direction.Min, "num_tracks" -> Direction.Max,
          "min_position" -> Direction.Min),
        nullAware = true),
      sqlQuery("outer-join-pushdown",
        """SELECT r.id, r.length, r.video, t.position
          |FROM mb_recording r LEFT OUTER JOIN mb_track t ON r.id = t.recording
          |SKYLINE OF length MIN, video MAX""".stripMargin,
        """SELECT r.id, r.length, r.video, t.position
          |FROM mb_recording r LEFT OUTER JOIN mb_track t ON r.id = t.recording""".stripMargin,
        Seq("id", "length", "video", "position"),
        Seq("length" -> Direction.Min, "video" -> Direction.Max),
        nullAware = false, plan = Plans.skylineBelowJoin),
      sqlQuery("missing-dim",
        "SELECT id, rating FROM mb_meta SKYLINE OF rating MAX, rating_count MAX",
        "SELECT * FROM mb_meta",
        Seq("id", "rating"),
        Seq("rating" -> Direction.Max, "rating_count" -> Direction.Max),
        nullAware = false),
      sqlQuery("single-dim-max",
        "SELECT * FROM mb_meta SKYLINE OF rating MAX",
        "SELECT * FROM mb_meta",
        Seq("id", "rating", "rating_count"),
        Seq("rating" -> Direction.Max),
        nullAware = false, plan = Plans.singleDim),
      sqlQuery("distinct",
        s"SELECT r.video, m.rating FROM $joined SKYLINE OF DISTINCT video MAX, rating MAX",
        s"SELECT r.video, m.rating FROM $joined",
        Seq("video", "rating"),
        Seq("video" -> Direction.Max, "rating" -> Direction.Max),
        nullAware = false, distinct = true),
      sqlQuery("diff",
        s"""SELECT r.id, r.video, r.length, m.rating FROM $joined
           |SKYLINE OF video DIFF, length MIN, rating MAX""".stripMargin,
        s"SELECT r.id, r.video, r.length, m.rating FROM $joined",
        Seq("id", "video", "length", "rating"),
        Seq("video" -> Direction.Diff, "length" -> Direction.Min, "rating" -> Direction.Max),
        nullAware = false),
    )

    def setup(spark: SparkSession, seed: Long, tiny: Boolean): Prepared = {
      val recordings = if (tiny) 300L else 5000L
      val (rec, meta, track) = SkylineData.musicBrainz(spark, recordings, seed = seed)
      val cached = Seq(
        materialize(rec, "mb_recording"),
        materialize(meta, "mb_meta"),
        materialize(track, "mb_track"))
      // the order of the queries in a round is part of the seeded input
      val order = new scala.util.Random(seed).shuffle(queries)
      // Input rows: recording and meta rows plus two track rows per
      // recording. Scan and kernel replay use the missing-dim query's input.
      Prepared(4 * recordings, cached(1),
        Seq("rating" -> Direction.Max, "rating_count" -> Direction.Max),
        incomplete = false, order, cached)
    }
  }
}
