package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String
import org.scalatest.funsuite.AnyFunSuite
import repro.reference.BruteForce
import scala.util.Random

/** [[SkylineAlgorithms.pivotMerge]], the complete global step of a
  * distributed plan, against [[BruteForce]] on both key stores, and its
  * dominance tests against those of BNL; the slots the BNL window writes.
  */
class PivotMergeSpec extends AnyFunSuite {

  import Direction._

  private type Tuple = (Int, Array[Any])

  private def row(t: Tuple): InternalRow = new GenericInternalRow(t._2)

  /** A value of `dataType` at level `x` in [0, 1]. */
  private def valueAt(dataType: DataType, x: Double): Any = dataType match {
    case IntegerType => (x * 1000).round.toInt
    case LongType    => (x * 1e6).round - 500000L
    case DoubleType  => x * 2 - 1
    case StringType  => UTF8String.fromString(f"${(x * 1000).round}%04d")
    case _: DecimalType => Decimal(BigDecimal(x * 100).setScale(2, BigDecimal.RoundingMode.HALF_UP), 10, 2)
  }

  private val doubleEdges = Seq(Double.NaN, -0.0, 0.0, Double.PositiveInfinity, Double.NegativeInfinity)

  /** `n` tuples whose levels come from `shape`, cut to `domain` steps (ties)
    * when given; a share of nulls and, for doubles, of edge values.
    */
  private def tuples(rnd: Random, types: Seq[DataType], n: Int, shape: String,
                     domain: Option[Int] = None, nullFrac: Double = 0.0,
                     edgeFrac: Double = 0.0): Seq[Tuple] = {
    val d = types.size
    val levels: Seq[Array[Double]] = shape match {
      case "anti" => TestUtil.antiCorrelated(n, d, rnd.nextLong())
      case "correlated" => Seq.fill(n) {
        val base = rnd.nextDouble()
        Array.fill(d)(math.min(1.0, math.max(0.0, base + 0.05 * rnd.nextGaussian())))
      }
      case _ => Seq.fill(n)(Array.fill(d)(rnd.nextDouble()))
    }
    levels.zipWithIndex.map { case (ls, id) =>
      val vs = types.zip(ls).map { case (t, x) =>
        val r = rnd.nextDouble()
        if (r < nullFrac) null
        else if (t == DoubleType && r < nullFrac + edgeFrac) doubleEdges(rnd.nextInt(doubleEdges.size))
        else valueAt(t, domain.fold(x)(q => (x * q).floor / q))
      }
      (id, vs.toArray[Any])
    }
  }

  /** The stores of a complete clause: encoded when the types allow it, and
    * always generic.
    */
  private def stores(types: Seq[DataType], dirs: Seq[Direction]): Seq[() => KeyStore] = {
    val keys = new SkylineKeys(types.toArray, dirs.toArray, incomplete = false)
    val generic: () => KeyStore =
      () => new GenericKeys(types.toArray, dirs.toArray, incomplete = false)
    if (keys.encoded) Seq(() => keys.newStore(), generic) else Seq(generic)
  }

  /** DISTINCT representatives may differ; compare the value combinations. */
  private def combos(ts: Seq[Tuple]): Seq[String] =
    ts.map(_._2.toSeq.map {
      case d: Double => java.lang.Double.doubleToLongBits(if (d == 0.0) 0.0 else d)
      case v         => v
    }.mkString("|")).sorted

  private def assertMerges(data: Seq[Tuple], types: Seq[DataType], dirs: Seq[Direction],
                           hint: String): Unit = {
    val rows = data.map(t => Row.fromSeq(t._1 +: t._2.toSeq))
    val dimIndex = dirs.zipWithIndex.map { case (d, i) => (i + 1, d) }
    for (distinct <- Seq(false, true)) {
      val expected = BruteForce.skyline(rows, dimIndex, incomplete = false, distinct)
        .map(r => data(r.getInt(0)))
      for (store <- stores(types, dirs)) {
        val keys = store()
        val got = SkylineAlgorithms.pivotMerge(data.iterator, row, keys, distinct,
          identity[Tuple]).toSeq
        val h = s"$hint distinct=$distinct ${keys.getClass.getSimpleName} $types $dirs"
        assert(got.map(_._1).distinct.size == got.size, s"$h: a tuple came out twice")
        if (distinct) assert(combos(got) == combos(expected), h)
        else assert(got.map(_._1).sorted == expected.map(_._1).sorted, h)
      }
    }
  }

  private def directions(rnd: Random, n: Int, diff: Boolean): Seq[Direction] = {
    val ds = Seq.fill(n)(if (diff) Seq(Min, Max, Diff)(rnd.nextInt(3)) else Seq(Min, Max)(rnd.nextInt(2)))
    if (ds.forall(_ == Diff)) ds.updated(0, Min) else ds
  }

  test("MIN/MAX/DIFF mixes, DISTINCT, duplicates and all-equal input match BruteForce") {
    val rnd = new Random(11)
    val numeric = Seq(IntegerType, LongType, DoubleType)
    for (trial <- 1 to 40) {
      val types = Seq.fill(1 + rnd.nextInt(5))(numeric(rnd.nextInt(numeric.size)))
      val dirs = directions(rnd, types.size, diff = true)
      val base = tuples(rnd, types, 40 + rnd.nextInt(300), Seq("indep", "anti")(trial % 2),
        domain = Some(3 + rnd.nextInt(20)))
      // every tuple twice, under a new id
      val data = base ++ base.map { case (id, vs) => (id + base.size, vs.clone()) }
      assertMerges(data, types, dirs, s"trial $trial")
    }
    val types = Seq(IntegerType, DoubleType, LongType)
    val same = Seq.tabulate(150)(i => (i, Array[Any](7, 0.5, 3L)))
    assertMerges(same, types, Seq(Min, Max, Diff), "all equal")
    for (store <- stores(types, Seq(Min, Max, Min))) {
      assert(SkylineAlgorithms.pivotMerge(same.iterator, row, store(), distinct = false,
        identity[Tuple]).size == 150)
      assert(SkylineAlgorithms.pivotMerge(same.iterator, row, store(), distinct = true,
        identity[Tuple]).size == 1)
    }
  }

  test("COMPLETE over nullable data: nulls, NaN and ±0.0, strings and decimals (generic keys)") {
    val rnd = new Random(12)
    val all = Seq(IntegerType, LongType, DoubleType, StringType, DecimalType(10, 2))
    for (trial <- 1 to 40) {
      val types = Seq.fill(2 + rnd.nextInt(4))(all(rnd.nextInt(all.size)))
      val dirs = directions(rnd, types.size, diff = trial % 3 == 0)
      val data = tuples(rnd, types, 60 + rnd.nextInt(250), Seq("indep", "anti", "correlated")(trial % 3),
        domain = if (trial % 2 == 0) Some(8) else None, nullFrac = 0.15, edgeFrac = 0.15)
      assertMerges(data, types, dirs, s"trial $trial")
    }
    // strings and decimals have no long image: the generic store runs alone
    assert(stores(Seq(StringType, IntegerType), Seq(Min, Max)).size == 1)
  }

  test("an all-DIFF clause, empty and one-row input") {
    val rnd = new Random(13)
    val types = Seq(IntegerType, StringType)
    val data = tuples(rnd, types, 200, "indep", domain = Some(4))
    // no MIN/MAX dimension: nothing dominates, DISTINCT keeps one per value pair
    assertMerges(data, types, Seq(Diff, Diff), "all DIFF")
    assertMerges(tuples(rnd, Seq(IntegerType, LongType), 200, "indep", domain = Some(4)),
      Seq(IntegerType, LongType), Seq(Diff, Diff), "all DIFF, long keys")
    for (n <- Seq(0, 1))
      assertMerges(tuples(rnd, Seq(DoubleType, StringType), n, "indep"),
        Seq(DoubleType, StringType), Seq(Min, Max), s"$n rows")
  }

  test("independent, correlated and anti-correlated points at sizes that cross the leaf size") {
    val rnd = new Random(14)
    val leaf = SkylineAlgorithms.MergeLeafSize
    for (n <- Seq(leaf, leaf + 1, 3 * leaf, 900); shape <- Seq("indep", "correlated", "anti");
         d <- Seq(2, 4, 6)) {
      val types = Seq.fill(d)(DoubleType)
      assertMerges(tuples(rnd, types, n, shape), types, directions(rnd, d, diff = false),
        s"$shape n=$n d=$d")
    }
  }

  /** A key store that counts its dominance tests and records the highest
    * slot written.
    */
  private final class Counting(inner: KeyStore, dirs: Array[Direction])
      extends KeyStore(dirs, incomplete = false) {
    var tests = 0L
    var highestSlot = -1
    override def relate(a: Int, b: Int): Int = { tests += 1; inner.relate(a, b) }
    override def dominates(a: Int, b: Int): Boolean = { tests += 1; inner.dominates(a, b) }
    override def nullMask(slot: Int): Long = inner.nullMask(slot)
    override def compareOn(p: Int, a: Int, b: Int): Int = inner.compareOn(p, a, b)
    override def write(dims: InternalRow, slot: Int): Unit = {
      highestSlot = math.max(highestSlot, slot)
      inner.write(dims, slot)
    }
  }

  /** The anti-correlated 4-D points of four partitions, and the union of
    * their local skylines.
    */
  private def anticorrUnion(keys: SkylineKeys): Seq[Tuple] =
    TestUtil.antiCorrelated(2500, 4, seed = 31)
      .zipWithIndex.map { case (p, id) => (id, p.toArray[Any]) }
      .grouped(625).flatMap(part =>
        SkylineAlgorithms.bnl(part.iterator, row, keys.newStore(), distinct = false,
          identity[Tuple]).iterator).toSeq

  test("the BNL window reuses the slots of dropped and evicted tuples") {
    val types = Array[DataType](DoubleType, DoubleType, DoubleType, DoubleType)
    val dirs = Array.fill[Direction](4)(Min)
    val keys = new SkylineKeys(types, dirs, incomplete = false)
    // each tuple dominates all before it, so each one evicts the whole window
    val improving = Seq.tabulate(10000)(i => (i, Array.fill[Any](4)(10000.0 - i)))
    for ((name, input) <- Seq("improving" -> improving, "anticorr union" -> anticorrUnion(keys));
         store <- Seq(keys.newStore(), new GenericKeys(types, dirs, incomplete = false))) {
      val counting = new Counting(store, dirs)
      val window = new SkylineAlgorithms.Window[Tuple](counting, distinct = false, identity)
      var peak = 0
      input.foreach { t =>
        window.offer(t, row(t))
        peak = math.max(peak, window.iterator.size)
      }
      // slots 0 to peak: the largest window and one candidate
      assert(counting.highestSlot <= peak,
        s"$name ${store.getClass.getSimpleName}: slot ${counting.highestSlot} written, peak window $peak")
    }
  }

  test("on the anti-correlated 4-D union the merge makes at most half of BNL's dominance tests") {
    val types = Array[DataType](DoubleType, DoubleType, DoubleType, DoubleType)
    val dirs = Array.fill[Direction](4)(Min)
    val keys = new SkylineKeys(types, dirs, incomplete = false)
    val union = anticorrUnion(keys)
    // in arrival order, and sorted by one dimension: a median that is not
    // the median (say, the first slot) splits the sorted union badly
    for ((order, input) <- Seq("arrival" -> union, "sorted" -> union.sortBy(_._2(0).asInstanceOf[Double]))) {
      val bnlKeys = new Counting(keys.newStore(), dirs)
      val bnl = SkylineAlgorithms.bnl(input.iterator, row, bnlKeys, distinct = false,
        identity[Tuple]).iterator.map(_._1).toSeq
      val mergeKeys = new Counting(keys.newStore(), dirs)
      val merged = SkylineAlgorithms.pivotMerge(input.iterator, row, mergeKeys, distinct = false,
        identity[Tuple]).map(_._1).toSeq
      assert(merged.sorted == bnl.sorted, order)
      assert(union.size > 2000 && bnl.size > 1800, s"union ${union.size}, skyline ${bnl.size}")
      assert(mergeKeys.tests * 2 <= bnlKeys.tests,
        s"$order: merge ${mergeKeys.tests} vs BNL ${bnlKeys.tests} dominance tests")
    }
  }
}
