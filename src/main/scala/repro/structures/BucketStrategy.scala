package repro.structures

import scala.collection.mutable.ArrayBuilder

/** The keys a bucket structure orders its vertices by, read when it needs
  * them: the current key (induced degree), whether the vertex is still
  * alive (not yet assigned), and whether it is selectable (not in sample
  * mode, where the stored degree is only an estimate). An alive vertex stays
  * in the active set; only an alive, selectable one is extracted.
  */
trait VertexKeys {
  def key(v: Int): Int
  def alive(v: Int): Boolean
  def selectable(v: Int): Boolean
}

/** Round-start frontier-extraction strategies over one engine partition's
  * owned vertices [lo, hi) (Alg. 1 line 5 / paper §5). Each reads its keys
  * from the [[VertexKeys]] it is built with.
  *
  * - [[ScanAllStrategy]]    — ParK/PKC: rescan every owned vertex each round
  *                            (no active set ⇒ O(m + kmax·n) total work).
  * - [[OneBucketStrategy]]  — Alg. 1: scan + repack the active set each round
  *                            (work-efficient, b = 1).
  * - [[FixedBucketsStrategy]] — Julienne: rebuild b = 16 buckets every b rounds,
  *                            DecreaseKey moves entries between them.
  * - [[HierarchicalStrategy]] — the paper's final design: OneBucket until the
  *                            θ-core is reached, then switch to [[Hbs]].
  *
  * `ops` counts structure operations (scans + inserts) for the cost model.
  *
  * [[minKey]] lets the engine skip the rounds no vertex peels in: the next
  * round starts at the least key still in use, not at k + 1.
  */
sealed trait BucketStrategy extends Serializable {
  /** Hook on every induced-degree decrement of an owned vertex. */
  def onDecrease(v: Int, newKey: Int): Unit
  /** Frontier for round k: the alive, selectable owned vertices with key k,
    * each once.
    */
  def extract(k: Int): Array[Int]
  /** The least key of an alive, selectable owned vertex, or `Int.MaxValue`
    * if there is none; charged to [[ops]]. [[ScanAllStrategy]] answers 0,
    * which the engine reads as "no round may be skipped".
    */
  def minKey(): Int
  def ops: Long
}

object BucketStrategy {
  /** The least key of an alive, selectable vertex of `vs`, or `Int.MaxValue`. */
  private[structures] def minDegree(keys: VertexKeys, vs: Array[Int]): Int = {
    var min = Int.MaxValue
    var i = 0
    while (i < vs.length) {
      val v = vs(i)
      if (keys.alive(v) && keys.selectable(v) && keys.key(v) < min) min = keys.key(v)
      i += 1
    }
    min
  }

  /** Sort + dedup an int array (a vertex may have several live copies). */
  private[structures] def dedupSorted(raw: Array[Int]): Array[Int] = {
    if (raw.length <= 1) return raw
    java.util.Arrays.sort(raw)
    var w = 0; var i = 0
    while (i < raw.length) {
      if (w == 0 || raw(w - 1) != raw(i)) { raw(w) = raw(i); w += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(raw, w)
  }
}

/** No active set: every round scans all owned vertices (ParK / PKC). It
  * keeps k + 1 as the next round: the O(kmax·n) rescan defines those
  * baselines.
  */
final class ScanAllStrategy(keys: VertexKeys, lo: Int, hi: Int) extends BucketStrategy {
  private var opsCount: Long = 0L

  def onDecrease(v: Int, newKey: Int): Unit = ()
  def extract(k: Int): Array[Int] = {
    opsCount += hi - lo
    val out = new ArrayBuilder.ofInt
    var v = lo
    while (v < hi) {
      if (keys.alive(v) && keys.selectable(v) && keys.key(v) == k) out += v
      v += 1
    }
    out.result()
  }
  def minKey(): Int = 0
  def ops: Long = opsCount
}

/** Active set as a compact array, repacked (PACKed) every round. */
final class OneBucketStrategy(keys: VertexKeys, lo: Int, hi: Int) extends BucketStrategy {
  private[structures] var active: Array[Int] = Array.range(lo, hi)
  private var opsCount: Long = 0L

  def onDecrease(v: Int, newKey: Int): Unit = ()
  def extract(k: Int): Array[Int] = {
    opsCount += active.length
    val out = new ArrayBuilder.ofInt
    val keep = new ArrayBuilder.ofInt
    var i = 0
    while (i < active.length) {
      val v = active(i)
      if (keys.alive(v)) {
        if (keys.selectable(v) && keys.key(v) == k) out += v
        else keep += v
      }
      i += 1
    }
    active = keep.result()
    out.result()
  }
  def minKey(): Int = {
    opsCount += active.length
    BucketStrategy.minDegree(keys, active)
  }
  def ops: Long = opsCount
}

/** Julienne's fixed-width bucketing: every `b` rounds, rebuild buckets
  * 0..b−1 (key = degree − k) plus an implicit overflow (the active array);
  * DecreaseKey inserts a copy into the target bucket when the new key falls
  * inside the current window. Stale copies are filtered on extraction.
  */
final class FixedBucketsStrategy(keys: VertexKeys, lo: Int, hi: Int) extends BucketStrategy {
  private final val b = 16 // Julienne's bucket count
  private var active: Array[Int] = Array.range(lo, hi)
  private val buckets: Array[Array[Int]] = Array.fill(b)(Array.emptyIntArray)
  private val bucketSz: Array[Int] = new Array[Int](b)
  private var windowStart: Int = -1 // k of the last rebuild; -1 = not built
  private var opsCount: Long = 0L

  private def pushBucket(i: Int, v: Int): Unit = {
    if (bucketSz(i) == buckets(i).length)
      buckets(i) = java.util.Arrays.copyOf(buckets(i), math.max(8, buckets(i).length * 2))
    buckets(i)(bucketSz(i)) = v
    bucketSz(i) += 1
    opsCount += 1
  }

  def onDecrease(v: Int, newKey: Int): Unit = {
    if (windowStart >= 0) {
      val idx = newKey - windowStart
      if (idx >= 0 && idx < b) pushBucket(idx, v)
    }
  }

  private def rebuild(k: Int): Unit = {
    windowStart = k
    java.util.Arrays.fill(bucketSz, 0)
    val keep = new ArrayBuilder.ofInt
    var i = 0
    while (i < active.length) {
      val v = active(i)
      opsCount += 1
      if (keys.alive(v)) {
        keep += v
        val idx = keys.key(v) - k
        if (idx >= 0 && idx < b) pushBucket(idx, v)
      }
      i += 1
    }
    active = keep.result()
  }

  def extract(k: Int): Array[Int] = {
    if (windowStart < 0 || k >= windowStart + b) rebuild(k)
    val idx = k - windowStart
    val out = new ArrayBuilder.ofInt
    val arr = buckets(idx); val sz = bucketSz(idx)
    bucketSz(idx) = 0
    var i = 0
    while (i < sz) {
      val v = arr(i)
      opsCount += 1
      if (keys.alive(v) && keys.selectable(v) && keys.key(v) == k) out += v
      i += 1
    }
    BucketStrategy.dedupSorted(out.result())
  }

  /** The first window bucket holding a live, selectable copy, else the least
    * key in the overflow. The stale copies it reads leave their bucket, so
    * each is read once.
    */
  def minKey(): Int = {
    if (windowStart >= 0) {
      var idx = 0
      while (idx < b) {
        val key = windowStart + idx
        val arr = buckets(idx)
        var i = 0
        while (i < bucketSz(idx)) {
          val v = arr(i)
          opsCount += 1
          if (!keys.alive(v) || keys.key(v) != key) { bucketSz(idx) -= 1; arr(i) = arr(bucketSz(idx)) }
          else if (keys.selectable(v)) return key
          else i += 1
        }
        idx += 1
      }
    }
    // No live, selectable copy in the window: every such key lies above it.
    opsCount += active.length
    BucketStrategy.minDegree(keys, active)
  }

  def ops: Long = opsCount
}

/** The paper's final design (§5.3): one bucket while k < θ, then switch to
  * the hierarchical bucketing structure once the θ-core is reached.
  */
final class HierarchicalStrategy(keys: VertexKeys, lo: Int, hi: Int, val theta: Int) extends BucketStrategy {
  private val one = new OneBucketStrategy(keys, lo, hi)
  private var hbs: Hbs = null // built at the first round k ≥ θ

  def onDecrease(v: Int, newKey: Int): Unit = if (hbs != null) hbs.insert(v, newKey)

  def extract(k: Int): Array[Int] = {
    if (hbs == null && k >= theta) {
      // Build the HBS over the remaining active vertices.
      hbs = new Hbs(keys)
      val remaining = one.active
      var i = 0
      while (i < remaining.length) {
        val v = remaining(i)
        if (keys.alive(v)) hbs.insert(v, keys.key(v))
        i += 1
      }
      one.active = Array.emptyIntArray // its ops stay in the sum below
    }
    if (hbs != null) hbs.extractForRound(k) else one.extract(k)
  }

  def minKey(): Int = if (hbs != null) hbs.minKey() else one.minKey()

  def ops: Long = one.ops + (if (hbs != null) hbs.opsCost else 0L)
}
