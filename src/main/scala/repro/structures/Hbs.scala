package repro.structures

import scala.collection.mutable.ArrayBuilder

/** Hierarchical Bucketing Structure (paper §5.2–5.3).
  *
  * Entries are (vertex, key) pairs; the current keys are read from `keys`.
  * Relative to the current minimum key k, the first 8 buckets are single-key
  * (k … k+7, stored circularly by key mod 8) and ranged bucket 8+t covers
  * [k + 8·2^t, k + 8·2^{t+1} − 1]. DecreaseKey is an [[insert]] of a fresh
  * copy, without deleting the old one — stale copies (stored key ≠ current
  * key, or vertex no longer alive and selectable) are filtered on
  * extraction, exactly as in the paper's hash-bag-based design, so the
  * latest copy of a vertex always carries its current induced degree.
  *
  * Ranged buckets are redistributed lazily: each ranged bucket tracks a lower
  * bound on the keys it holds; when that bound falls inside the single-key
  * window [k, k+8) the bucket is drained and its live entries re-placed under
  * the current layout. Every touch moves an entry to a smaller-range bucket,
  * giving the O(log d(v)) per-vertex bound of §5.2.
  *
  * Single-threaded per engine partition; `opsCost` accumulates structure
  * operations for the cost model.
  */
final class Hbs(keys: VertexKeys) extends Serializable {

  import Hbs._

  // singles(s) holds keys ≡ s (mod 8) within the current window [k, k+8).
  private val singles: Array[Array[Long]] = Array.fill(8)(EmptyArr)
  private val singleSz: Array[Int] = new Array[Int](8)
  private val ranged: Array[Array[Long]] = Array.fill(NRanged)(EmptyArr)
  private val rangedSz: Array[Int] = new Array[Int](NRanged)
  private val rangedMin: Array[Int] = Array.fill(NRanged)(Int.MaxValue)
  private var k: Int = 0
  /** Structure operations performed so far (inserts + scans), for CostModel. */
  var opsCost: Long = 0L

  /** The single-key slot that holds `key`: key mod 8. */
  @inline private def slot(key: Int): Int = ((key % 8) + 8) % 8

  /** Ranged bucket index for an offset d = key − k with d ≥ 8. */
  @inline private def rangedIdx(d: Int): Int = 31 - Integer.numberOfLeadingZeros(d >>> 3)

  private def push(store: Array[Array[Long]], szs: Array[Int], b: Int, e: Long): Unit = {
    if (szs(b) == store(b).length) {
      val cap = math.max(8, store(b).length * 2)
      store(b) = java.util.Arrays.copyOf(store(b), cap)
    }
    store(b)(szs(b)) = e
    szs(b) += 1
  }

  def insert(v: Int, key: Int): Unit = {
    opsCost += 1
    val e = pack(v, key)
    val d = key - k
    if (d < 8) push(singles, singleSz, slot(key), e)
    else {
      val b = rangedIdx(d)
      push(ranged, rangedSz, b, e)
      if (key < rangedMin(b)) rangedMin(b) = key
    }
  }

  /** A copy of `v` at `key` is live: `v` is alive and selectable, and `key` is its current key. */
  @inline private def live(v: Int, key: Int): Boolean = keys.alive(v) && keys.selectable(v) && keys.key(v) == key

  /** Extract the frontier for round `kRound`: every live vertex whose
    * current key equals `kRound`, each once.
    */
  def extractForRound(kRound: Int): Array[Int] = {
    k = kRound
    // Pull down any ranged bucket that may hold keys inside [k, k+8). One
    // pass suffices: a re-placed entry lands in a single-key slot or at a
    // key ≥ k + 8, so no ranged bucket drops back below the window.
    var b = 0
    while (b < NRanged) {
      if (rangedSz(b) > 0 && rangedMin(b) < kRound + 8) {
        val arr = ranged(b); val sz = rangedSz(b)
        ranged(b) = EmptyArr; rangedSz(b) = 0; rangedMin(b) = Int.MaxValue
        var i = 0
        while (i < sz) {
          val e = arr(i); val v = unpackV(e); val key = unpackK(e)
          opsCost += 1
          // Keep only the live latest copy; drop keys below the window
          // (a fresher copy exists, or the vertex was peeled).
          if (key >= kRound && live(v, key)) insert(v, key)
          i += 1
        }
      }
      b += 1
    }
    // Drain the single-key slot for kRound.
    val s = slot(kRound)
    val arr = singles(s); val sz = singleSz(s)
    singles(s) = EmptyArr; singleSz(s) = 0
    val out = new ArrayBuilder.ofInt
    var i = 0
    while (i < sz) {
      val e = arr(i); val v = unpackV(e)
      opsCost += 1
      if (live(v, kRound)) out += v
      i += 1
    }
    BucketStrategy.dedupSorted(out.result())
  }

  /** The least current key of a live vertex, or `Int.MaxValue`; keys
    * are at least the last extracted round, as in the engine. It reads the
    * single-key slots of [k, k+8) in key order, then the ranged buckets in
    * order of `rangedMin`. The stale copies it reads leave their bucket, so
    * each is read once.
    */
  def minKey(): Int = {
    var key = k
    while (key < k + 8) {
      // The slot's keys are ≡ key (mod 8) and below k + 8: only key can be live.
      if (leastLive(singles, singleSz, slot(key), key) == key) return key
      key += 1
    }
    // Every ranged key is ≥ k + 8, since the last extraction pulled down each
    // ranged bucket whose rangedMin was smaller. A live copy at the smallest
    // rangedMin is the answer; a bucket read to its end gets an exact one.
    var least = -1
    while (least < 0) {
      var b = -1
      var i = 0
      while (i < NRanged) {
        if (rangedSz(i) > 0 && (b < 0 || rangedMin(i) < rangedMin(b))) b = i
        i += 1
      }
      if (b < 0) least = Int.MaxValue
      else {
        val read = leastLive(ranged, rangedSz, b, rangedMin(b))
        if (read == rangedMin(b)) least = read else rangedMin(b) = read
      }
    }
    least
  }

  /** Reads bucket `b` until a live copy with key ≤ `stopAt`, swapping each
    * stale copy out for the last one; returns the least live key read, or
    * `Int.MaxValue`. Read to its end, the bucket holds live copies only.
    */
  private def leastLive(store: Array[Array[Long]], szs: Array[Int], b: Int, stopAt: Int): Int = {
    val arr = store(b)
    var least = Int.MaxValue
    var i = 0
    while (i < szs(b) && least > stopAt) {
      val e = arr(i); val v = unpackV(e); val key = unpackK(e)
      opsCost += 1
      if (live(v, key)) { least = math.min(least, key); i += 1 }
      else { szs(b) -= 1; arr(i) = arr(szs(b)) }
    }
    least
  }
}

object Hbs {
  /** ⌊log2(d / 8)⌋ ≤ 27 for every offset d ≤ Int.MaxValue: no bound on the keys is needed. */
  private final val NRanged = 28
  private val EmptyArr = new Array[Long](0)
  @inline private def pack(v: Int, key: Int): Long = (key.toLong << 32) | (v.toLong & 0xffffffffL)
  @inline private def unpackV(e: Long): Int = e.toInt
  @inline private def unpackK(e: Long): Int = (e >>> 32).toInt
}
