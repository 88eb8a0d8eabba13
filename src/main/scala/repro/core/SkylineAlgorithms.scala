package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow

/** Pure skyline kernels, shared by the physical operators and directly
  * unit-testable without a SparkSession.
  *
  * Each kernel exists once, over a [[KeyStore]]: it reads a payload `P`
  * per tuple, writes the tuple's key into a store slot via `dims` (the
  * tuple's skyline-dimension values as a row, possibly a reused buffer),
  * and keeps `own(payload)` only for tuples it has to remember. The
  * physical operators pass input rows with `own = _.copy()`, so only the
  * rows that enter a window are copied.
  *
  * The overloads over `(payload, dimValues)` pairs with a
  * [[DominanceChecker]] run the same kernels on [[GenericKeys]].
  */
object SkylineAlgorithms {

  /** Block-Nested-Loop window (§5.6, complete data only — relies on the
    * transitivity of dominance to delete dominated tuples eagerly).
    *
    * Slots `[0, size)` of `keys` hold the skyline of everything offered so
    * far. For each offered tuple t: if some window tuple dominates t (or
    * ties it exactly under DISTINCT), t is dropped; otherwise every window
    * tuple t dominates is evicted and t is inserted.
    */
  final class Window[P](keys: KeyStore, distinct: Boolean, own: P => P) {
    private var payloads = new Array[AnyRef](16)
    private var n = 0

    /** Offer the tuple `p` with dimension values `dims`. */
    def offer(p: P, dims: InternalRow): Unit = {
      keys.reserve(n + 1)
      val c = n // the candidate's slot, just past the window
      keys.write(dims, c)
      var m = n
      var i = 0
      while (i < m) {
        val r = keys.relate(i, c)
        if (r == KeyStore.FirstDominates || (distinct && r == KeyStore.Equal)) {
          n = m
          return
        }
        if (r == KeyStore.SecondDominates) {
          // evict slot i: move the last window slot into it
          m -= 1
          keys.move(m, i)
          payloads(i) = payloads(m)
        } else i += 1
      }
      if (m != c) keys.move(c, m)
      if (m == payloads.length) payloads = java.util.Arrays.copyOf(payloads, m * 2)
      payloads(m) = own(p).asInstanceOf[AnyRef]
      n = m + 1
    }

    def iterator: Iterator[P] = payloads.iterator.take(n).asInstanceOf[Iterator[P]]
  }

  /** BNL skyline of `rows` (see [[Window]]). */
  def bnl[P](
      rows: Iterator[P],
      dims: P => InternalRow,
      keys: KeyStore,
      distinct: Boolean,
      own: P => P): Window[P] = {
    val window = new Window(keys, distinct, own)
    while (rows.hasNext) {
      val p = rows.next()
      window.offer(p, dims(p))
    }
    window
  }

  /** Local skyline for incomplete data (§5.7): one streaming BNL window
    * per null bitmap. Within a group all tuples share the same null
    * positions, so incomplete dominance degenerates to complete dominance
    * on the non-null sub-space — transitive, hence BNL-safe. Across groups
    * nothing is compared here; that is the global step's job (Lemma 5.1
    * guarantees the union of these local skylines suffices).
    */
  def bnlByNullBitmap[P](
      rows: Iterator[P],
      dims: P => InternalRow,
      arity: Int,
      newKeys: () => KeyStore,
      distinct: Boolean,
      own: P => P): Iterator[P] = {
    val byMask = mutable.LongMap.empty[Window[P]]
    val groups = ArrayBuffer.empty[Window[P]] // first-seen order
    while (rows.hasNext) {
      val p = rows.next()
      val d = dims(p)
      val mask = KeyStore.nullMask(d, arity)
      var w = byMask.getOrNull(mask)
      if (w == null) {
        w = new Window(newKeys(), distinct, own)
        byMask.update(mask, w)
        groups += w
      }
      w.offer(p, d)
    }
    groups.iterator.flatMap(_.iterator)
  }

  /** All-pairs skyline with deferred deletion (§5.7 global step for
    * incomplete data). Dominated tuples are only *flagged* while scanning so
    * that a dominated tuple can still eliminate the tuples it dominates —
    * the fix for the cyclic-dominance bug illustrated in Appendix A. A pair
    * whose tuples are both flagged already can change nothing and is
    * skipped.
    */
  def allPairsDeferred[P](
      rows: Iterator[P],
      dims: P => InternalRow,
      keys: KeyStore,
      distinct: Boolean,
      own: P => P): Iterator[P] = {
    val payloads = ArrayBuffer.empty[P]
    while (rows.hasNext) {
      val p = rows.next()
      keys.reserve(payloads.length + 1)
      keys.write(dims(p), payloads.length)
      payloads += own(p)
    }
    val n = payloads.length
    val dominated = new Array[Boolean](n)
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        if (!(dominated(i) && dominated(j))) {
          keys.relate(i, j) match {
            case KeyStore.FirstDominates  => dominated(j) = true
            case KeyStore.SecondDominates => dominated(i) = true
            case _                        =>
          }
        }
        j += 1
      }
      i += 1
    }
    val kept = ArrayBuffer.empty[Int]
    i = 0
    while (i < n) {
      if (!dominated(i) &&
          (!distinct || !kept.exists(k => keys.relate(k, i) == KeyStore.Equal)))
        kept += i
      i += 1
    }
    kept.iterator.map(payloads)
  }

  // ---- (payload, dimValues) pairs over a DominanceChecker -----------------

  private def valuesRow[T](t: (T, Array[Any])): InternalRow = new GenericInternalRow(t._2)

  /** [[bnl]] on generic keys. */
  def bnl[T](
      rows: Iterator[(T, Array[Any])],
      checker: DominanceChecker,
      distinct: Boolean): ArrayBuffer[(T, Array[Any])] =
    ArrayBuffer.from(bnl(rows, valuesRow[T], new GenericKeys(checker), distinct, identity[(T, Array[Any])]).iterator)

  /** [[allPairsDeferred]] on generic keys. */
  def allPairsDeferred[T](
      rows: IndexedSeq[(T, Array[Any])],
      checker: DominanceChecker,
      distinct: Boolean): ArrayBuffer[(T, Array[Any])] =
    ArrayBuffer.from(allPairsDeferred(rows.iterator, valuesRow[T], new GenericKeys(checker), distinct, identity[(T, Array[Any])]))

  /** [[bnlByNullBitmap]] on generic keys. */
  def bnlByNullBitmap[T](
      rows: Iterator[(T, Array[Any])],
      checker: DominanceChecker,
      distinct: Boolean): Iterator[(T, Array[Any])] =
    bnlByNullBitmap(rows, valuesRow[T], checker.arity, () => new GenericKeys(checker), distinct, identity[(T, Array[Any])])
}
