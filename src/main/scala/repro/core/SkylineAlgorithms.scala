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
  * physical operators pass input rows with `own = _.copy()`: the BNL
  * kernels copy only the rows that join a window, [[allPairsDeferred]] and
  * [[pivotMerge]] every row, since they buffer their whole input. Every BNL
  * runs through [[bnlStep]].
  *
  * The overloads over `(payload, dimValues)` pairs with a
  * [[DominanceChecker]] run the same kernels on [[GenericKeys]].
  */
object SkylineAlgorithms {

  /** Block-Nested-Loop window (§5.6, complete data only — relies on the
    * transitivity of dominance to delete dominated tuples eagerly).
    *
    * `ids(0 until n)` are the store slots of the skyline of everything
    * offered so far, in window order; the slots after them are free. Each
    * offered tuple's key goes into the first free slot, and [[bnlStep]]
    * decides whether it joins, so the store never holds more than the
    * largest window plus one key. Only a tuple that joins is owned.
    */
  final class Window[P](keys: KeyStore, distinct: Boolean, own: P => P) {
    private var ids = Array.range(0, 16)
    private var payloads = new Array[AnyRef](16) // by slot
    private var n = 0

    /** Offer the tuple `p` with dimension values `dims`. */
    def offer(p: P, dims: InternalRow): Unit = {
      if (n == ids.length) {
        ids = ids ++ Array.range(n, 2 * n)
        payloads = java.util.Arrays.copyOf(payloads, 2 * n)
      }
      val slot = ids(n)
      keys.write(dims, slot)
      n = bnlStep(keys, distinct, ids, 0, n, n)
      if (n > 0 && ids(n - 1) == slot) payloads(slot) = own(p).asInstanceOf[AnyRef]
    }

    def iterator: Iterator[P] = ids.iterator.take(n).map(payloads(_).asInstanceOf[P])
  }

  /** One BNL step over store slots: `ids(from until from + n)` is the
    * window and `ids(c)`, at or past its end, the candidate. The candidate
    * is dropped if a window slot dominates it (or, under DISTINCT, ties it
    * exactly); otherwise every window slot it dominates is swapped with the
    * window's last slot, past the shrunk window's end, and the candidate is
    * swapped in as the new last slot. Returns the new window size; `ids`
    * stays a permutation.
    */
  private def bnlStep(keys: KeyStore, distinct: Boolean, ids: Array[Int], from: Int, n: Int,
                      c: Int): Int = {
    val candidate = ids(c)
    var m = n
    var i = 0
    while (i < m) {
      val r = keys.relate(ids(from + i), candidate)
      if (r == KeyStore.FirstDominates || (distinct && r == KeyStore.Equal)) return m
      if (r == KeyStore.SecondDominates) {
        m -= 1
        swap(ids, from + i, from + m)
      } else i += 1
    }
    swap(ids, from + m, c)
    m + 1
  }

  private def swap(ids: Array[Int], i: Int, j: Int): Unit = {
    val t = ids(i)
    ids(i) = ids(j)
    ids(j) = t
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
    * skipped. Under DISTINCT an exact tie flags the later tuple, which
    * still eliminates every tuple its twin does.
    */
  def allPairsDeferred[P](
      rows: Iterator[P],
      dims: P => InternalRow,
      keys: KeyStore,
      distinct: Boolean,
      own: P => P): Iterator[P] = {
    val payloads = buffer(rows, dims, keys, own)
    val n = payloads.length
    val dominated = new Array[Boolean](n)
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        if (!(dominated(i) && dominated(j))) {
          keys.relate(i, j) match {
            case KeyStore.FirstDominates    => dominated(j) = true
            case KeyStore.SecondDominates   => dominated(i) = true
            case KeyStore.Equal if distinct => dominated(j) = true
            case _                          =>
          }
        }
        j += 1
      }
      i += 1
    }
    (0 until n).iterator.filterNot(dominated(_)).map(payloads)
  }

  /** The kernels that see every row at once: the key of the i-th row goes
    * into slot i, and its owned payload to index i of the result.
    */
  private def buffer[P](rows: Iterator[P], dims: P => InternalRow, keys: KeyStore, own: P => P)
      : ArrayBuffer[P] = {
    val payloads = ArrayBuffer.empty[P]
    rows.foreach { p =>
      keys.write(dims(p), payloads.length)
      payloads += own(p)
    }
    payloads
  }

  /** Group size at or below which [[pivotMerge]] runs BNL instead of
    * splitting the group again.
    */
  final val MergeLeafSize = 64

  /** Merge of local skylines: the global step of a distributed complete
    * plan, whose input is the union of the local steps' survivors, most of
    * them incomparable. Pivot partitioning after BSkyTree (Lee and Hwang,
    * EDBT 2010): [[PivotMerge.pivot]] gives every tuple a mask of the
    * dimensions on which it is worse than the per-dimension medians, and a
    * tuple can dominate another only if its mask is a subset of the
    * other's. The tuples are grouped by mask and the groups visited in
    * popcount order, so every subset group comes first. Each group's
    * skyline is found the same way inside the group (BNL at or below
    * [[MergeLeafSize]] or when the masks do not split the group); then a
    * survivor that a survivor of a subset group dominates is dropped. Only
    * subset groups can dominate, so that test is one-directional, and every
    * group's survivors are final. Exact ties share a mask, so DISTINCT is
    * settled inside a group.
    *
    * Unlike [[bnl]] this buffers the whole input, so it is not used where
    * the global node sees the whole table.
    */
  def pivotMerge[P](
      rows: Iterator[P],
      dims: P => InternalRow,
      keys: KeyStore,
      distinct: Boolean,
      own: P => P): Iterator[P] = {
    val payloads = buffer(rows, dims, keys, own)
    val merge = new PivotMerge(keys, distinct, payloads.length)
    val kept = merge.skyline(0, payloads.length)
    merge.slots.iterator.take(kept).map(payloads)
  }

  /** The recursion of [[pivotMerge]] over a permutation of store slots. */
  private final class PivotMerge(keys: KeyStore, distinct: Boolean, n: Int) {
    val slots: Array[Int] = Array.range(0, n)
    private val masks = new Array[Long](n)
    private val ranked = keys.ranked
    private val work = new Array[Int](n)

    /** Moves the skyline of `slots(from until until)` to the front of that
      * range and returns its size.
      */
    def skyline(from: Int, until: Int): Int = {
      if (until - from <= MergeLeafSize) return bnl(from, until)
      pivot(from, until)
      val (groupMasks, starts) = group(from, until)
      val groups = groupMasks.length
      if (groups == 1) return bnl(from, until)
      // survivors of group g end up in slots(keptFrom(g) until keptFrom(g + 1))
      val keptFrom = new Array[Int](groups + 1)
      keptFrom(0) = from
      val subsets = new Array[Int](groups)
      var g = 0
      while (g < groups) {
        val mg = groupMasks(g)
        var s = 0
        var h = 0
        while (h < g) {
          if ((groupMasks(h) & ~mg) == 0L) { subsets(s) = h; s += 1 }
          h += 1
        }
        val survivors = skyline(starts(g), starts(g + 1))
        var out = keptFrom(g)
        var j = starts(g)
        while (j < starts(g) + survivors) {
          val t = slots(j)
          if (!dominatedIn(subsets, s, keptFrom, t)) { slots(out) = t; out += 1 }
          j += 1
        }
        keptFrom(g + 1) = out
        g += 1
      }
      keptFrom(groups) - from
    }

    /** The pivot step: over `slots(from until until)`, each ranked
      * position's median (by [[KeyStore.compareOn]]) is a threshold, and
      * `masks(j)` gets bit b for each ranked position b on which `slots(j)`
      * is worse than it. If slot a dominates slot b, the bits of a are a
      * subset of those of b.
      */
    private def pivot(from: Int, until: Int): Unit = {
      java.util.Arrays.fill(masks, from, until, 0L)
      var b = 0
      while (b < ranked.length) {
        val p = ranked(b)
        System.arraycopy(slots, from, work, 0, until - from)
        val median = select(p, until - from, (until - from) / 2)
        var j = from
        while (j < until) {
          if (keys.compareOn(p, slots(j), median) > 0) masks(j) |= 1L << b
          j += 1
        }
        b += 1
      }
    }

    /** The slot of rank `k` (best first) at position `p` among
      * `work(0 until n)`, which it reorders: Hoare's quickselect, in place.
      */
    private def select(p: Int, n: Int, k: Int): Int = {
      var lo = 0
      var hi = n - 1
      while (lo < hi) {
        val pivot = work(k)
        var i = lo
        var j = hi
        while (i <= j) {
          while (keys.compareOn(p, work(i), pivot) < 0) i += 1
          while (keys.compareOn(p, pivot, work(j)) < 0) j -= 1
          if (i <= j) {
            val t = work(i); work(i) = work(j); work(j) = t
            i += 1
            j -= 1
          }
        }
        if (j < k) lo = i
        if (k < i) hi = j
      }
      work(k)
    }

    /** Does a survivor of one of the groups `subsets(0 until count)`
      * dominate slot `t`?
      */
    private def dominatedIn(subsets: Array[Int], count: Int, keptFrom: Array[Int], t: Int): Boolean = {
      var i = 0
      while (i < count) {
        val h = subsets(i)
        var q = keptFrom(h)
        while (q < keptFrom(h + 1)) {
          if (keys.dominates(slots(q), t)) return true
          q += 1
        }
        i += 1
      }
      false
    }

    /** Sorts `slots(from until until)` into groups of equal mask, in
      * popcount order; returns each group's mask and the group starts (one
      * more than the groups, ending at `until`).
      */
    private def group(from: Int, until: Int): (Array[Long], Array[Int]) = {
      val groupOf = mutable.LongMap.empty[Int]
      var j = from
      while (j < until) { groupOf.getOrElseUpdate(masks(j), groupOf.size); j += 1 }
      val groupMasks = groupOf.keys.toArray.sortBy(java.lang.Long.bitCount)
      groupMasks.indices.foreach(g => groupOf(groupMasks(g)) = g)
      // counting sort of the slots by group
      val starts = new Array[Int](groupMasks.length + 1)
      j = from
      while (j < until) { starts(groupOf(masks(j)) + 1) += 1; j += 1 }
      starts(0) = from
      for (g <- 1 to groupMasks.length) starts(g) += starts(g - 1)
      val next = starts.clone()
      val sorted = new Array[Int](until - from)
      j = from
      while (j < until) {
        val g = groupOf(masks(j))
        sorted(next(g) - from) = slots(j)
        next(g) += 1
        j += 1
      }
      System.arraycopy(sorted, 0, slots, from, until - from)
      (groupMasks, starts)
    }

    /** The BNL of [[bnl]] over `slots(from until until)`, in place. */
    private def bnl(from: Int, until: Int): Int = {
      var n = 0
      var j = from
      while (j < until) {
        n = bnlStep(keys, distinct, slots, from, n, j)
        j += 1
      }
      n
    }
  }

  // ---- (payload, dimValues) pairs over a DominanceChecker -----------------

  private def valuesRow[T](t: (T, Array[Any])): InternalRow = new GenericInternalRow(t._2)

  private def genericKeys(checker: DominanceChecker): KeyStore =
    new GenericKeys(checker.types, checker.dirs, checker.incomplete)

  /** [[bnl]] on generic keys. */
  def bnl[T](
      rows: Iterator[(T, Array[Any])],
      checker: DominanceChecker,
      distinct: Boolean): ArrayBuffer[(T, Array[Any])] =
    ArrayBuffer.from(bnl(rows, valuesRow[T], genericKeys(checker), distinct, identity[(T, Array[Any])]).iterator)

  /** [[allPairsDeferred]] on generic keys. */
  def allPairsDeferred[T](
      rows: IndexedSeq[(T, Array[Any])],
      checker: DominanceChecker,
      distinct: Boolean): ArrayBuffer[(T, Array[Any])] =
    ArrayBuffer.from(allPairsDeferred(rows.iterator, valuesRow[T], genericKeys(checker), distinct, identity[(T, Array[Any])]))

  /** [[bnlByNullBitmap]] on generic keys. */
  def bnlByNullBitmap[T](
      rows: Iterator[(T, Array[Any])],
      checker: DominanceChecker,
      distinct: Boolean): Iterator[(T, Array[Any])] =
    bnlByNullBitmap(rows, valuesRow[T], checker.arity, () => genericKeys(checker), distinct, identity[(T, Array[Any])])
}
