package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.catalyst.util.SQLOrderingUtil
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String
import org.scalatest.funsuite.AnyFunSuite
import repro.reference.BruteForce
import scala.util.Random

/** The encoded key path ([[LongKeys]]) against the generic one
  * ([[GenericKeys]]), the [[DominanceChecker]] oracle and [[BruteForce]], on
  * seeded random tuples of every encodable type, edge values included.
  */
class SkylineKeysSpec extends AnyFunSuite {

  import Direction._
  import SkylineKeysSpec.Gen

  private type Tuple = (Int, Array[Any])

  private val doubleEdges = Seq(Double.NaN, -0.0, 0.0, Double.PositiveInfinity,
    Double.NegativeInfinity, Double.MinPositiveValue, -Double.MinPositiveValue,
    Double.MaxValue, Double.MinValue, 1.5, -1.5)
  private val floatEdges = Seq(Float.NaN, -0.0f, 0.0f, Float.PositiveInfinity,
    Float.NegativeInfinity, Float.MinPositiveValue, Float.MaxValue, Float.MinValue, 2.5f)

  private val gens: Seq[Gen] = Seq(
    Gen(ByteType, Seq(Byte.MinValue, Byte.MaxValue, 0.toByte), x => (x * 8 - 4).round.toByte),
    Gen(ShortType, Seq(Short.MinValue, Short.MaxValue), x => (x * 8).round.toShort),
    Gen(IntegerType, Seq(Int.MinValue, Int.MaxValue, -1), x => (x * 8 - 4).round.toInt),
    Gen(LongType, Seq(Long.MinValue, Long.MaxValue, Long.MaxValue - 1, Long.MinValue + 1),
      x => (x * 8).round),
    Gen(FloatType, floatEdges, x => (x * 4).round.toFloat / 2),
    Gen(DoubleType, doubleEdges, x => (x * 8).round.toDouble / 4 - 1),
    Gen(BooleanType, Seq(true, false), x => x > 0.5),
    Gen(DateType, Seq(Int.MinValue, Int.MaxValue, 0), x => 18000 + (x * 6).round.toInt),
    Gen(TimestampType, Seq(Long.MinValue, Long.MaxValue, 0L), x => (x * 6).round * 1000000L),
  )

  /** Levels of one tuple: independent, or anti-correlated (Börzsönyi et al.:
    * near a plane where a good value in one dimension means bad ones in the
    * others).
    */
  private def levels(rnd: Random, dims: Int, anti: Boolean): Seq[Double] =
    if (!anti) Seq.fill(dims)(rnd.nextDouble())
    else {
      val raw = Seq.fill(dims)(rnd.nextDouble() + 0.01)
      val s = raw.sum
      raw.map(r => math.min(1.0, r / s * dims / 2))
    }

  private def tuples(rnd: Random, gs: Seq[Gen], n: Int, anti: Boolean,
                     nullFrac: Double, edgeFrac: Double = 0.15): Seq[Tuple] =
    (0 until n).map { id =>
      val vs = gs.zip(levels(rnd, gs.size, anti)).map { case (g, x) =>
        val r = rnd.nextDouble()
        if (r < nullFrac) null
        else if (r < nullFrac + edgeFrac) g.edges(rnd.nextInt(g.edges.size))
        else g.at(x)
      }
      (id, vs.toArray[Any])
    }

  private def row(t: Tuple): InternalRow = new GenericInternalRow(t._2)

  private def encoded(types: Seq[DataType], dirs: Seq[Direction], incomplete: Boolean) = {
    val keys = new SkylineKeys(types.toArray, dirs.toArray, incomplete)
    assert(keys.encoded && keys.toString == s"long[${types.size}]")
    keys
  }

  private def brute(data: Seq[Tuple], dirs: Seq[Direction], incomplete: Boolean,
                    distinct: Boolean = false): Seq[Tuple] = {
    val rows = data.map(t => Row.fromSeq(t._1 +: t._2.toSeq))
    val dims = dirs.zipWithIndex.map { case (d, i) => (i + 1, d) }
    BruteForce.skyline(rows, dims, incomplete, distinct)
      .map(r => (r.getInt(0), r.toSeq.tail.toArray[Any]))
  }

  private def ids(ts: IterableOnce[Tuple]): Set[Int] = ts.iterator.map(_._1).toSet

  /** DISTINCT representatives differ by path; compare the value combinations. */
  private def combos(ts: IterableOnce[Tuple]): Seq[Seq[Any]] =
    ts.iterator.map(_._2.toSeq.map {
      case d: Double => java.lang.Double.doubleToLongBits(if (d == 0.0) 0.0 else d)
      case f: Float  => java.lang.Float.floatToIntBits(if (f == 0.0f) 0.0f else f)
      case v         => v
    }).toSeq.sortBy(_.mkString("|"))

  /** Random dimension types and directions; at least one MIN/MAX. */
  private def shape(rnd: Random, maxDims: Int): (Seq[Gen], Seq[Direction]) = {
    val n = 1 + rnd.nextInt(maxDims)
    val gs = Seq.fill(n)(gens(rnd.nextInt(gens.size)))
    val dirs0 = Seq.fill(n)(Seq(Min, Max, Diff)(rnd.nextInt(3)))
    (gs, if (dirs0.forall(_ == Diff)) dirs0.updated(0, Max) else dirs0)
  }

  // ---- the encoding --------------------------------------------------------

  test("double and float keys order like SQLOrderingUtil (NaN, ±0.0, ±Infinity)") {
    val rnd = new Random(1)
    val ds = doubleEdges ++ Seq.fill(50)(rnd.nextGaussian() * 1e3)
    for (x <- ds; y <- ds)
      assert(java.lang.Long.compare(LongKeys.doubleKey(x), LongKeys.doubleKey(y)).sign ==
        SQLOrderingUtil.compareDoubles(x, y).sign, s"$x vs $y")
    val fs = floatEdges ++ Seq.fill(50)(rnd.nextGaussian().toFloat * 1e3f)
    for (x <- fs; y <- fs)
      assert(java.lang.Long.compare(LongKeys.floatKey(x), LongKeys.floatKey(y)).sign ==
        SQLOrderingUtil.compareFloats(x, y).sign, s"$x vs $y")
    assert(LongKeys.doubleKey(-0.0) == LongKeys.doubleKey(0.0))
    assert(LongKeys.doubleKey(Double.NaN) ==
      LongKeys.doubleKey(java.lang.Double.longBitsToDouble(0x7ff0000000000123L)))
  }

  test("relate agrees with DominanceChecker on both paths (randomized, nulls, both modes)") {
    val rnd = new Random(2)
    for (trial <- 1 to 60; incomplete <- Seq(false, true)) {
      val (gs, dirs) = shape(rnd, 6)
      val types = gs.map(_.dataType)
      val checker = new DominanceChecker(types.toArray, dirs.toArray, incomplete)
      val data = tuples(rnd, gs, 30, anti = rnd.nextBoolean(), nullFrac = 0.2)
      val long = encoded(types, dirs, incomplete).newStore()
      val generic = new GenericKeys(types.toArray, dirs.toArray, incomplete)
      for (s <- Seq(long, generic)) data.foreach(t => s.write(row(t), t._1))
      for (a <- data; b <- data) {
        val expected =
          if (checker.dominates(a._2, b._2)) KeyStore.FirstDominates
          else if (checker.dominates(b._2, a._2)) KeyStore.SecondDominates
          else if (checker.equalOnDims(a._2, b._2)) KeyStore.Equal
          else KeyStore.Neither
        val hint = s"trial $trial incomplete=$incomplete $types $dirs " +
          s"${a._2.toSeq} vs ${b._2.toSeq}"
        assert(long.relate(a._1, b._1) == expected, hint)
        assert(generic.relate(a._1, b._1) == expected, hint)
        assert(long.dominates(a._1, b._1) == (expected == KeyStore.FirstDominates), hint)
        assert(generic.dominates(a._1, b._1) == (expected == KeyStore.FirstDominates), hint)
      }
    }
  }

  // ---- the kernels: encoded == generic == BruteForce -----------------------

  test("complete: encoded BNL equals generic BNL and BruteForce (incl. forced COMPLETE with nulls)") {
    val rnd = new Random(3)
    for (trial <- 1 to 80) {
      val (gs, dirs) = shape(rnd, 5)
      val types = gs.map(_.dataType)
      val checker = new DominanceChecker(types.toArray, dirs.toArray, incomplete = false)
      val nullFrac = if (trial % 3 == 0) 0.2 else 0.0
      val data = tuples(rnd, gs, 20 + rnd.nextInt(120), anti = trial % 2 == 0, nullFrac)
      val keys = encoded(types, dirs, incomplete = false)
      val hint = s"trial $trial $types $dirs nulls=$nullFrac"

      val enc = SkylineAlgorithms.bnl(data.iterator, row, keys.newStore(), distinct = false,
        identity[Tuple]).iterator.toSeq
      val gen = SkylineAlgorithms.bnl(data.iterator, checker, distinct = false)
      val expected = ids(brute(data, dirs, incomplete = false))
      assert(ids(gen) == expected, hint)
      assert(ids(enc) == expected, hint)
      assert(enc.size == expected.size, hint)

      // local windows per chunk, then a global window over their union
      val local = data.grouped(17).flatMap(g =>
        SkylineAlgorithms.bnl(g.iterator, row, keys.newStore(), distinct = false,
          identity[Tuple]).iterator)
      val global = SkylineAlgorithms.bnl(local, row, keys.newStore(), distinct = false,
        identity[Tuple]).iterator
      assert(ids(global) == expected, s"$hint (local then global)")

      val encD = SkylineAlgorithms.bnl(data.iterator, row, keys.newStore(), distinct = true,
        identity[Tuple]).iterator.toSeq
      val genD = SkylineAlgorithms.bnl(data.iterator, checker, distinct = true)
      val expD = combos(brute(data, dirs, incomplete = false, distinct = true))
      assert(combos(genD) == expD, s"$hint DISTINCT")
      assert(combos(encD) == expD, s"$hint DISTINCT")
    }
  }

  test("incomplete: encoded bitmap-local + all-pairs global equals generic and BruteForce") {
    val rnd = new Random(4)
    for (trial <- 1 to 80) {
      val (gs, dirs) = shape(rnd, 5)
      val types = gs.map(_.dataType)
      val checker = new DominanceChecker(types.toArray, dirs.toArray, incomplete = true)
      val data = tuples(rnd, gs, 20 + rnd.nextInt(100), anti = trial % 2 == 0, nullFrac = 0.25)
      val keys = encoded(types, dirs, incomplete = true)
      val hint = s"trial $trial $types $dirs"
      val arity = types.size

      for (distinct <- Seq(false, true)) {
        // the local step sees whole bitmap groups; partition by bitmap hash
        val parts = data.groupBy(t => checker.nullBitmap(t._2).hashCode & 3).values.toSeq
        val encLocal = parts.flatMap(p => SkylineAlgorithms.bnlByNullBitmap(
          p.iterator, row, arity, () => keys.newStore(), distinct, identity[Tuple]))
        val enc = SkylineAlgorithms.allPairsDeferred(encLocal.iterator, row, keys.newStore(),
          distinct, identity[Tuple]).toSeq
        val genLocal = parts.flatMap(p =>
          SkylineAlgorithms.bnlByNullBitmap(p.iterator, checker, distinct))
        val gen = SkylineAlgorithms.allPairsDeferred(genLocal.toIndexedSeq, checker, distinct)
        val direct = SkylineAlgorithms.allPairsDeferred(data.iterator, row, keys.newStore(),
          distinct, identity[Tuple]).toSeq
        val exp = brute(data, dirs, incomplete = true, distinct)
        if (!distinct) {
          assert(ids(gen) == ids(exp), hint)
          assert(ids(enc) == ids(exp), hint)
          assert(ids(direct) == ids(exp), s"$hint (all pairs only)")
        } else {
          assert(combos(gen) == combos(exp), s"$hint DISTINCT")
          assert(combos(enc) == combos(exp), s"$hint DISTINCT")
          assert(combos(direct) == combos(exp), s"$hint DISTINCT (all pairs only)")
        }
      }
    }
  }

  // ---- limits and the generic fallback --------------------------------------

  test("33 dimensions: tuples null at dimension 0 and at dimension 32 form different groups") {
    // a dominates b and b dominates c (on dims 1..31); a and c are
    // incomparable (c wins on dim 32). If a and b shared a bitmap group, the
    // local BNL would drop b before it could eliminate c.
    def tuple(d0: Any, d1: Int, d32: Any): Array[Any] =
      Array.tabulate[Any](33)(i => if (i == 0) d0 else if (i == 1) d1 else if (i == 32) d32 else 0)
    val data = Seq(
      (0, tuple(null, 1, 5)), // a
      (1, tuple(0, 2, null)), // b
      (2, tuple(null, 3, 0)), // c
    )
    val dirs = Seq.fill(33)(Min)
    val types = Seq.fill(33)(IntegerType)
    val checker = new DominanceChecker(types.toArray, dirs.toArray, incomplete = true)
    val expected = ids(brute(data, dirs, incomplete = true))
    assert(expected == Set(0))
    val genLocal = SkylineAlgorithms.bnlByNullBitmap(data.iterator, checker, distinct = false)
    assert(ids(SkylineAlgorithms.allPairsDeferred(genLocal.toIndexedSeq, checker,
      distinct = false)) == expected)
    val keys = encoded(types, dirs, incomplete = true)
    val encLocal = SkylineAlgorithms.bnlByNullBitmap(data.iterator, row, 33,
      () => keys.newStore(), distinct = false, identity[Tuple])
    assert(ids(SkylineAlgorithms.allPairsDeferred(encLocal, row, keys.newStore(),
      distinct = false, identity[Tuple])) == expected)
  }

  test("an incomplete skyline over more than 64 dimensions is rejected, naming the limit") {
    val e = intercept[IllegalArgumentException] {
      new DominanceChecker(Array.fill[DataType](65)(IntegerType), Array.fill(65)(Min),
        incomplete = true)
    }
    assert(e.getMessage.contains("at most 64 dimensions"))
  }

  test("strings, decimals, binary and more than 64 dimensions take the generic path") {
    val cases = Seq[(Array[DataType], Boolean)](
      (Array(StringType, IntegerType), false),
      (Array(DecimalType(10, 2), IntegerType), true),
      (Array(BinaryType), false),
      // complete mode has no bitmaps, so no limit, but a null mask is one long
      (Array.fill[DataType](65)(IntegerType), false))
    for ((types, incomplete) <- cases) {
      val keys = new SkylineKeys(types, types.map(_ => Min: Direction), incomplete)
      assert(!keys.encoded && keys.toString == "generic", types.toSeq)
      assert(keys.newStore().isInstanceOf[GenericKeys])
    }
  }

  test("generic keys own the string values of a reused row buffer") {
    val keys = new SkylineKeys(Array(StringType), Array(Min), incomplete = false)
    val store = keys.newStore()
    val bytes = "bbb".getBytes("UTF-8")
    val buffer = new GenericInternalRow(Array[Any](null))
    // write through a non-generic row view so the store has to copy
    val view = new org.apache.spark.sql.catalyst.expressions.JoinedRow(buffer, InternalRow.empty)
    buffer.update(0, UTF8String.fromBytes(bytes))
    store.write(view, 0)
    bytes(0) = 'a'.toByte // the upstream buffer is reused
    buffer.update(0, UTF8String.fromString("abc"))
    store.write(view, 1)
    assert(store.relate(1, 0) == KeyStore.FirstDominates, "slot 0 must still hold \"bbb\"")
  }

  test("generic keys copy the values of a reused GenericInternalRow") {
    val keys = new SkylineKeys(Array(IntegerType, StringType), Array(Min, Min), incomplete = false)
    val store = keys.newStore()
    val buffer = new GenericInternalRow(2)
    buffer.update(0, 2)
    buffer.update(1, UTF8String.fromString("b"))
    store.write(buffer, 0)
    buffer.update(0, 1)
    buffer.update(1, UTF8String.fromString("a"))
    store.write(buffer, 1)
    assert(store.relate(1, 0) == KeyStore.FirstDominates, "slot 0 must still hold (2, \"b\")")
  }
}

object SkylineKeysSpec {
  /** One encodable type: its edge values and a value at level `x` in [0, 1]. */
  final case class Gen(dataType: DataType, edges: Seq[Any], at: Double => Any)
}
