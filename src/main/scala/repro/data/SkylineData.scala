package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.parser.skyline.Bridge
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.Direction

/** Synthetic stand-ins for the paper's evaluation datasets (§6.2, App. E).
  *
  * The originals (Inside Airbnb snapshot, DSB `store_sales`, MusicBrainz)
  * are external downloads; these generators reproduce their schemas
  * (Tables 1, 2, 13) and the distributional features the skyline behavior
  * depends on: small-domain dimensions with heavy ties (`ss_quantity`,
  * `accommodates`, ...), a near-continuous price dimension, correlated price
  * columns, and a configurable null fraction in every skyline dimension for
  * the "incomplete" variants. Deterministic in (rows, nullFraction, seed).
  */
object SkylineData {

  /** Skyline dimensions of the Airbnb dataset — paper Table 1. */
  val airbnbDims: Seq[(String, Direction)] = Seq(
    "price"                -> Direction.Min,
    "accommodates"         -> Direction.Max,
    "bedrooms"             -> Direction.Max,
    "beds"                 -> Direction.Max,
    "number_of_reviews"    -> Direction.Max,
    "review_scores_rating" -> Direction.Max,
  )

  /** Skyline dimensions of the store_sales dataset — paper Table 2. */
  val storeSalesDims: Seq[(String, Direction)] = Seq(
    "ss_quantity"         -> Direction.Max,
    "ss_wholesale_cost"   -> Direction.Min,
    "ss_list_price"       -> Direction.Min,
    "ss_sales_price"      -> Direction.Min,
    "ss_ext_discount_amt" -> Direction.Max,
    "ss_ext_sales_price"  -> Direction.Min,
  )

  /** Skyline dimensions of the MusicBrainz complex query — paper Table 13. */
  val musicBrainzDims: Seq[(String, Direction)] = Seq(
    "rating"       -> Direction.Max,
    "rating_count" -> Direction.Max,
    "length"       -> Direction.Min,
    "video"        -> Direction.Max,
    "num_tracks"   -> Direction.Max,
    "min_position" -> Direction.Min,
  )

  /** Sprinkle nulls into `columns` with the given per-column probabilities;
    * with an empty map the columns are instead marked non-nullable so the
    * planner's nullability-based algorithm selection (§5.5) sees a complete
    * schema — generator expressions (round, casts) otherwise stay
    * nullable=true.
    */
  private def withNulls(df: DataFrame, columns: Seq[String],
                        fractions: Map[String, Double], seed: Long): DataFrame =
    if (fractions.isEmpty) {
      columns.foldLeft(df) { case (d, c) =>
        d.withColumn(c, Bridge.assertNotNull(d.sparkSession, col(c)))
      }
    } else columns.zipWithIndex.foldLeft(df) { case (d, (c, i)) =>
      fractions.get(c) match {
        case Some(f) =>
          d.withColumn(c, when(rand(seed + 1000 + i) < f, lit(null)).otherwise(col(c)))
        case None => d
      }
    }

  /** The real datasets' nulls are concentrated in a few columns (review
    * scores missing on Airbnb, sale prices suppressed in DSB), not spread
    * independently over every dimension — independent nulls would make
    * all-null tuples (the only undominatable ones) vanishingly rare and
    * collapse the incomplete skyline to a handful of rows. Concentrating
    * them in the last three dimensions also reproduces the paper's limited
    * bitmap-partitioning parallelism (few distinct null patterns, §5.7).
    */
  private def nullPlan(dims: Seq[(String, Direction)], fraction: Double): Map[String, Double] =
    if (fraction <= 0) Map.empty
    else dims.takeRight(3).map(_._1).zip(
      Seq(fraction, 1.5 * fraction, math.min(2 * fraction, 0.5))).toMap

  /** Columns that actually receive nulls in the incomplete variants. */
  def nullableDims(dims: Seq[(String, Direction)]): Seq[String] =
    dims.takeRight(3).map(_._1)

  /** Inside-Airbnb-like listings (Table 1 schema).
    *
    * @param nullFraction 0.0 → "complete" variant (non-nullable schema);
    *                     >0 → "incomplete" variant
    */
  def airbnb(spark: SparkSession, rows: Long, nullFraction: Double = 0.0,
             seed: Long = 42): DataFrame = {
    val base = spark.range(rows).select(
      col("id"),
      round(rand(seed) * 480 + 20, 2)                       as "price",
      (rand(seed + 1) * 16 + 1).cast(IntegerType)           as "accommodates",
      (rand(seed + 2) * 9).cast(IntegerType)                as "bedrooms",
      (rand(seed + 3) * 13).cast(IntegerType)               as "beds",
      // review counts are heavily right-skewed: square the uniform draw
      (pow(rand(seed + 4), 2) * 500).cast(IntegerType)      as "number_of_reviews",
      (rand(seed + 5) * 80 + 20).cast(IntegerType)          as "review_scores_rating",
    )
    withNulls(base, airbnbDims.map(_._1), nullPlan(airbnbDims, nullFraction), seed)
  }

  /** DSB store_sales-like facts (Table 2 schema). `ss_quantity` lives on a
    * small domain (1..100) so the 1-dimension MAX skyline is huge — the
    * feature behind the paper's dramatic reference blowup at one dimension
    * (Table 5). Price columns are correlated: list ≥ wholesale ≥ 0,
    * sales ≤ list.
    */
  def storeSales(spark: SparkSession, rows: Long, nullFraction: Double = 0.0,
                 seed: Long = 7): DataFrame = {
    val base = spark.range(rows).select(
      (col("id") % 20000 + 1)                                as "ss_item_sk",
      (col("id") / 4 + 1)                                    as "ss_ticket_number",
      // small domain → many rows tie at the maximum; this is the feature
      // behind the paper's dramatic dim-1 reference blowup (Table 5): the
      // 1-dim MAX skyline is a constant *fraction* of the table, so the
      // NOT EXISTS rewrite degenerates to ~(fraction·n²) dominance probes
      (rand(seed) * 25 + 1).cast(IntegerType)                as "ss_quantity",
      round(rand(seed + 1) * 99 + 1, 2)                      as "ss_wholesale_cost",
      round((rand(seed + 1) * 99 + 1) * (lit(1.0) + rand(seed + 2)), 2)
                                                             as "ss_list_price",
      round((rand(seed + 1) * 99 + 1) * (lit(1.0) + rand(seed + 2))
              * (lit(1.0) - rand(seed + 3) * 0.5), 2)        as "ss_sales_price",
      round(rand(seed + 4) * 500, 2)                         as "ss_ext_discount_amt",
      round((rand(seed + 1) * 99 + 1) * (lit(1.0) + rand(seed + 2))
              * (lit(1.0) - rand(seed + 3) * 0.5)
              * (rand(seed) * 100 + 1).cast(IntegerType), 2) as "ss_ext_sales_price",
    )
    withNulls(base, storeSalesDims.map(_._1), nullPlan(storeSalesDims, nullFraction), seed)
  }

  /** MusicBrainz-like trio of tables for the complex-query experiments
    * (Appendix E): `recording(id, length, video)`,
    * `recording_meta(id, rating, rating_count)`,
    * `track(recording, position)` with ~2 tracks per recording (some
    * recordings have none, exercising the LEFT OUTER JOIN).
    */
  def musicBrainz(spark: SparkSession, nRecordings: Long,
                  nullFraction: Double = 0.0, seed: Long = 11)
      : (DataFrame, DataFrame, DataFrame) = {
    val recording0 = spark.range(1, nRecordings + 1).select(
      col("id"),
      (rand(seed) * 540000 + 30000).cast(IntegerType) as "length",
      (rand(seed + 1) * 2).cast(IntegerType)          as "video",
    )
    val recording = withNulls(recording0, Seq("length"),
      if (nullFraction <= 0) Map.empty else Map("length" -> nullFraction), seed)

    val meta0 = spark.range(1, nRecordings + 1).select(
      col("id"),
      (rand(seed + 2) * 100).cast(IntegerType)             as "rating",
      (pow(rand(seed + 3), 2) * 1000).cast(IntegerType)    as "rating_count",
    )
    val meta = withNulls(meta0, Seq("rating", "rating_count"),
      if (nullFraction <= 0) Map.empty
      else Map("rating" -> nullFraction, "rating_count" -> nullFraction), seed + 1)

    val track = spark.range(nRecordings * 2).select(
      // recording ids are skewed so track counts vary; ids beyond
      // 0.8*nRecordings get no tracks at all
      (pow(rand(seed + 4), 2) * (nRecordings * 0.8) + 1).cast(LongType) as "recording",
      (rand(seed + 5) * 20 + 1).cast(IntegerType)                       as "position",
    )
    (recording, meta, track)
  }
}
