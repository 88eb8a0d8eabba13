package perfbench

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{DoubleType, IntegerType, LongType}
import repro.core.{Direction, DominanceChecker, SkylineAlgorithms}

/** Replays the skyline kernels on the input each operator stage sees, timed
  * around the kernel call alone, so operator time minus kernel time is the
  * row handling around the kernel.
  *
  * Complete data: BNL on each cached partition (the local step), then BNL
  * on the union of the local results (the global step). Incomplete data:
  * rows go to partitions by null bitmap as the exchange sends them (a
  * bitmap group is never split, so the local result does not depend on
  * which partition a group lands in), bitmap-grouped BNL runs per
  * partition, and the all-pairs step runs on the union.
  */
object KernelReplay {

  final case class Result(
      bnlMs: Double,
      allPairsMs: Double,
      bitmapGroups: Int,
      dominatesNs: Double,
      localOut: Long,
      globalOut: Long)

  private def bitmap(v: Array[Any]): Long = {
    var b = 0L
    var i = 0
    while (i < v.length) { if (v(i) == null) b |= 1L << i; i += 1 }
    b
  }

  def run(input: DataFrame, dims: Seq[(String, Direction)], incomplete: Boolean,
          seed: Long, reps: Int): Result = {
    val types = dims.map { case (c, _) => input.schema(c).dataType }
    // Row values equal Catalyst's internal values only for these types.
    require(types.forall(t => t == IntegerType || t == LongType || t == DoubleType),
      s"kernel replay supports int, bigint and double dimensions, not $types")
    val checker = new DominanceChecker(types.toArray, dims.map(_._2).toArray, incomplete)
    val values = input.select(dims.map(d => input(d._1)): _*).rdd
      .map((r: Row) => Array.tabulate[Any](r.length)(r.get))
      .cache()
    val parts = if (incomplete) {
      val n = values.getNumPartitions
      values.map(v => (bitmap(v), v)).partitionBy(new HashPartitioner(n)).values
    } else values

    def local(): (Double, Array[Array[Any]]) = {
      val out = parts.mapPartitions { it =>
        val rows = it.map(v => ((), v)).toArray
        val t0 = System.nanoTime()
        val kept =
          if (incomplete) SkylineAlgorithms.bnlByNullBitmap(rows.iterator, checker, distinct = false).toArray
          else SkylineAlgorithms.bnl(rows.iterator, checker, distinct = false).toArray
        Iterator.single((System.nanoTime() - t0, kept.map(_._2)))
      }.collect()
      (out.map(_._1).sum / 1e6, out.flatMap(_._2))
    }

    def global(in: Array[Array[Any]]): (Double, Int) = {
      val rows = in.map(v => ((), v))
      val t0 = System.nanoTime()
      val kept =
        if (incomplete) SkylineAlgorithms.allPairsDeferred(rows.toIndexedSeq, checker, distinct = false)
        else SkylineAlgorithms.bnl(rows.iterator, checker, distinct = false)
      ((System.nanoTime() - t0) / 1e6, kept.size)
    }

    val runs = (1 to reps).map { _ =>
      val (localMs, survivors) = local()
      val (globalMs, globalOut) = global(survivors)
      (localMs, globalMs, survivors.length.toLong, globalOut.toLong)
    }
    val localMs = Stats.median(runs.map(_._1))
    val globalMs = Stats.median(runs.map(_._2))
    val groups = values.map(bitmap).distinct().count().toInt
    val sample = values.takeSample(withReplacement = false, 2048, seed)
    values.unpersist(blocking = true)
    Result(
      bnlMs = if (incomplete) localMs else localMs + globalMs,
      allPairsMs = if (incomplete) globalMs else 0.0,
      bitmapGroups = groups,
      dominatesNs = dominatesNs(sample, checker, seed),
      localOut = runs.head._3,
      globalOut = runs.head._4)
  }

  /** Time per `DominanceChecker.dominates` call over a seeded sample of
    * input pairs; median of five passes after one warm-up pass.
    */
  private def dominatesNs(sample: Array[Array[Any]], checker: DominanceChecker, seed: Long): Double = {
    val rnd = new java.util.SplittableRandom(seed)
    val pairs = 1 << 20
    val a = Array.fill(pairs)(rnd.nextInt(sample.length))
    val b = Array.fill(pairs)(rnd.nextInt(sample.length))
    var sink = 0
    def pass(): Double = {
      val t0 = System.nanoTime()
      var i = 0
      while (i < pairs) {
        if (checker.dominates(sample(a(i)), sample(b(i)))) sink += 1
        i += 1
      }
      (System.nanoTime() - t0).toDouble / pairs
    }
    pass()
    val ns = Stats.median((1 to 5).map(_ => pass()))
    if (sink == -1) println() // keeps the loop from being optimised away
    ns
  }
}
