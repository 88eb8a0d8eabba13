package perfbench

import com.fasterxml.jackson.databind.json.JsonMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule

/** Order statistics, and JSON rendering of the report's maps and spans. */
object Stats {

  def median(values: Seq[Double]): Double = {
    val xs = values.sorted.toIndexedSeq
    val n = xs.size
    require(n > 0, "median of an empty sample")
    if (n % 2 == 1) xs(n / 2) else (xs(n / 2 - 1) + xs(n / 2)) / 2
  }

  def mean(values: Seq[Double]): Double =
    if (values.isEmpty) 0.0 else values.sum / values.size

  /** The highest percentile (in whole percent, at least 50) that has at least
    * ten of `n` samples above it; None when the sample is too small for any.
    */
  def tailPercentile(n: Int): Option[Int] =
    (99 to 50 by -1).find(p => n * (100 - p) / 100.0 >= 10)

  private val mapper = JsonMapper.builder().addModule(DefaultScalaModule).build()

  def json(v: Any): String = mapper.writeValueAsString(v)
}
