package repro.structures

import scala.collection.mutable.ArrayBuilder

/** Round-start frontier-extraction strategies over one engine partition's
  * owned vertices (Alg. 1 line 5 / paper §5).
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
  def init(owned: Array[Int]): Unit
  /** Hook on every induced-degree decrement of an owned vertex. */
  def onDecrease(v: Int, newKey: Int): Unit
  /** Frontier for round k: alive, selectable owned vertices with current
    * degree == k. `alive` (not yet assigned) controls active-set retention;
    * `selectable` (not in sample mode) additionally gates extraction, since
    * a sampled vertex's stored degree is only an estimate.
    */
  def extract(k: Int, degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Array[Int]
  /** The least current degree of an alive, selectable owned vertex, or
    * `Int.MaxValue` if there is none; charged to [[ops]]. [[ScanAllStrategy]]
    * answers 0, which the engine reads as "no round may be skipped".
    */
  def minKey(degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Int
  def ops: Long
}

object BucketStrategy {
  /** The least degree of an alive, selectable vertex of `vs`, or `Int.MaxValue`. */
  private[structures] def minDegree(vs: Array[Int], degOf: Int => Int, alive: Int => Boolean,
                                    selectable: Int => Boolean): Int = {
    var min = Int.MaxValue
    var i = 0
    while (i < vs.length) {
      val v = vs(i)
      if (alive(v) && selectable(v) && degOf(v) < min) min = degOf(v)
      i += 1
    }
    min
  }
}

/** No active set: every round scans all owned vertices (ParK / PKC). It
  * keeps k + 1 as the next round: the O(kmax·n) rescan defines those
  * baselines.
  */
final class ScanAllStrategy extends BucketStrategy {
  private var owned: Array[Int] = Array.emptyIntArray
  private var opsCount: Long = 0L

  def init(o: Array[Int]): Unit = { owned = o }
  def onDecrease(v: Int, newKey: Int): Unit = ()
  def extract(k: Int, degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Array[Int] = {
    opsCount += owned.length
    val out = new ArrayBuilder.ofInt
    var i = 0
    while (i < owned.length) {
      val v = owned(i)
      if (alive(v) && selectable(v) && degOf(v) == k) out += v
      i += 1
    }
    out.result()
  }
  def minKey(degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Int = 0
  def ops: Long = opsCount
}

/** Active set as a compact array, repacked (PACKed) every round. */
final class OneBucketStrategy extends BucketStrategy {
  private[structures] var active: Array[Int] = Array.emptyIntArray
  private var opsCount: Long = 0L

  def init(o: Array[Int]): Unit = { active = o.clone() }
  def onDecrease(v: Int, newKey: Int): Unit = ()
  def extract(k: Int, degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Array[Int] = {
    opsCount += active.length
    val out = new ArrayBuilder.ofInt
    val keep = new ArrayBuilder.ofInt
    var i = 0
    while (i < active.length) {
      val v = active(i)
      if (alive(v)) {
        if (selectable(v) && degOf(v) == k) out += v
        else keep += v
      }
      i += 1
    }
    active = keep.result()
    out.result()
  }
  def minKey(degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Int = {
    opsCount += active.length
    BucketStrategy.minDegree(active, degOf, alive, selectable)
  }
  def ops: Long = opsCount
}

/** Julienne's fixed-width bucketing: every `b` rounds, rebuild buckets
  * 0..b−1 (key = degree − k) plus an implicit overflow (the active array);
  * DecreaseKey inserts a copy into the target bucket when the new key falls
  * inside the current window. Stale copies are filtered on extraction.
  */
final class FixedBucketsStrategy extends BucketStrategy {
  private final val b = 16 // Julienne's bucket count
  private var active: Array[Int] = Array.emptyIntArray
  private val buckets: Array[Array[Int]] = Array.fill(b)(Array.emptyIntArray)
  private val bucketSz: Array[Int] = new Array[Int](b)
  private var windowStart: Int = -1 // k of the last rebuild; -1 = not built
  private var opsCount: Long = 0L

  def init(o: Array[Int]): Unit = { active = o.clone() }

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

  private def rebuild(k: Int, degOf: Int => Int, alive: Int => Boolean): Unit = {
    windowStart = k
    java.util.Arrays.fill(bucketSz, 0)
    val keep = new ArrayBuilder.ofInt
    var i = 0
    while (i < active.length) {
      val v = active(i)
      opsCount += 1
      if (alive(v)) {
        keep += v
        val idx = degOf(v) - k
        if (idx >= 0 && idx < b) pushBucket(idx, v)
      }
      i += 1
    }
    active = keep.result()
  }

  def extract(k: Int, degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Array[Int] = {
    if (windowStart < 0 || k >= windowStart + b) rebuild(k, degOf, alive)
    val idx = k - windowStart
    val out = new ArrayBuilder.ofInt
    val arr = buckets(idx); val sz = bucketSz(idx)
    bucketSz(idx) = 0
    var i = 0
    while (i < sz) {
      val v = arr(i)
      opsCount += 1
      if (alive(v) && selectable(v) && degOf(v) == k) out += v
      i += 1
    }
    Hbs.dedupSorted(out.result())
  }

  /** The first window bucket holding a live, selectable copy, else the least
    * key in the overflow. The stale copies it reads leave their bucket, so
    * each is read once.
    */
  def minKey(degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Int = {
    if (windowStart >= 0) {
      var idx = 0
      while (idx < b) {
        val key = windowStart + idx
        val arr = buckets(idx)
        var i = 0
        while (i < bucketSz(idx)) {
          val v = arr(i)
          opsCount += 1
          if (!alive(v) || degOf(v) != key) { bucketSz(idx) -= 1; arr(i) = arr(bucketSz(idx)) }
          else if (selectable(v)) return key
          else i += 1
        }
        idx += 1
      }
    }
    // No live, selectable copy in the window: every such key lies above it.
    opsCount += active.length
    BucketStrategy.minDegree(active, degOf, alive, selectable)
  }

  def ops: Long = opsCount
}

/** The paper's final design (§5.3): one bucket while k < θ, then switch to
  * the hierarchical bucketing structure once the θ-core is reached.
  */
final class HierarchicalStrategy(val theta: Int) extends BucketStrategy {
  private var one = new OneBucketStrategy
  private var hbs: Hbs = null
  private var switched = false

  def init(o: Array[Int]): Unit = one.init(o)

  def onDecrease(v: Int, newKey: Int): Unit =
    if (switched) hbs.decreaseKey(v, newKey) else one.onDecrease(v, newKey)

  def extract(k: Int, degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Array[Int] = {
    if (!switched && k >= theta) {
      // Build the HBS over the remaining active vertices.
      switched = true
      hbs = new Hbs
      val remaining = one.active
      var i = 0
      while (i < remaining.length) {
        val v = remaining(i)
        if (alive(v)) hbs.insert(v, degOf(v))
        i += 1
      }
      one = null
    }
    if (switched) hbs.extractForRound(k, degOf, v => alive(v) && selectable(v))
    else one.extract(k, degOf, alive, selectable)
  }

  def minKey(degOf: Int => Int, alive: Int => Boolean, selectable: Int => Boolean): Int =
    if (switched) hbs.minKey(degOf, v => alive(v) && selectable(v))
    else one.minKey(degOf, alive, selectable)

  def ops: Long = (if (one != null) one.ops else 0L) + (if (hbs != null) hbs.opsCost else 0L)
}
