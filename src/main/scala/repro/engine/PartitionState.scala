package repro.engine

import repro.core.{FixedBuckets, Hierarchical, KCoreConfig, OneBucket, ScanAllBuckets}
import repro.structures.{BucketStrategy, FixedBucketsStrategy, HierarchicalStrategy, OneBucketStrategy, ScanAllStrategy, VertexKeys}
import scala.collection.mutable.ArrayBuilder

/** The mutable per-partition state of the peeling engine. One instance per
  * logical partition (pid); a Spark task may host several of them. Each
  * subround advances it in place ([[advance]]): the Spark exchange keeps it
  * in a cached block for the whole run. A new state's [[lastOut]] carries
  * its initial sampler-directory entries (vertices put into sample mode at
  * k = 0), part of the first subround's input, and the least key the first
  * round may start at.
  *
  * Arrays are indexed by local id (global − lo) except `peeled`, which is a
  * bitset over all n vertices — each partition tracks the *global* processed
  * set (updated from every partition's newly peeled vertices in each
  * subround's input) so exact recounts of sampled vertices can scan their
  * adjacency locally.
  *
  * It is also the key view of its own bucket structure: a vertex's key is
  * its stored degree, it is alive until assigned, and selectable out of
  * sample mode.
  */
final class PartitionState(val g: PartitionGraph, val cfg: KCoreConfig) extends VertexKeys with Serializable {
  import PartitionState.InProgress

  val deg: Array[Int] = Array.tabulate(g.nOwned)(g.degreeLocal)
  val core: Array[Int] = Array.fill(g.nOwned)(-1) // -1 until assigned to a frontier
  val peeled = new Array[Long]((g.n >>> 6) + 1)    // global bitset: decrements already issued
  val mode = new Array[Byte](g.nOwned)            // 0 off, 1 sampling, 2 exiting (recount pending)
  val cnt = new Array[Int](g.nOwned)
  val rateArr = new Array[Double](g.nOwned)
  var frontier: Array[Int] = Array.emptyIntArray       // owned global ids awaiting processing
  var pendingRecount: Array[Int] = Array.emptyIntArray // owned global ids to recount this subround
  var sampledOwned: Array[Int] = _                     // owned global ids possibly in sample mode (lazily filtered)
  val strategy: BucketStrategy = cfg.buckets match {
    case ScanAllBuckets => new ScanAllStrategy(this, g.lo, g.hi)
    case OneBucket => new OneBucketStrategy(this, g.lo, g.hi)
    case FixedBuckets => new FixedBucketsStrategy(this, g.lo, g.hi)
    case Hierarchical => new HierarchicalStrategy(this, g.lo, g.hi, KCoreConfig.Theta)
  }
  val dir = new java.util.HashMap[Integer, java.lang.Double]() // replica of the global sampler directory
  var peeledOwnedCount = 0
  private var steps = 0 // subrounds run so far, or InProgress
  // The k = 0 entries are both the directory changes and the sampled set;
  // neither array is mutated in place.
  private var out: SubroundOut = {
    val dirV = new ArrayBuilder.ofInt
    val dirRate = new ArrayBuilder.ofDouble
    var v = g.lo
    while (v < g.hi) { enterSampleMode(v, 0, dirV, dirRate); v += 1 }
    sampledOwned = dirV.result()
    val least = leastKey(-1)
    val counters = SubCounters.Zero.copy(work = strategy.ops + sampledOwned.length,
      structOps = strategy.ops, leastKey = least)
    val e = Array.emptyIntArray
    SubroundOut(g.pid, e, null, e, e, sampledOwned, dirRate.result(), counters, error = false)
  }

  @inline def li(v: Int): Int = v - g.lo
  @inline def isPeeledBit(v: Int): Boolean = (peeled(v >>> 6) & (1L << (v & 63))) != 0
  @inline def setPeeledBit(v: Int): Unit = peeled(v >>> 6) |= (1L << (v & 63))

  def key(v: Int): Int = deg(li(v))
  def alive(v: Int): Boolean = core(li(v)) == -1
  def selectable(v: Int): Boolean = mode(li(v)) == 0

  /** The output of the last subround, or of init before the first. */
  def lastOut: SubroundOut = out

  /** Runs subround s = `in.subroundIndex` in place, at most once, since a
    * task may run twice on the same states (a retried or re-executed task):
    * a state already at step s + 1 returns its recorded output; a state at
    * step s is marked in progress, advanced, then stamped s + 1; any other
    * state throws (see [[expect]]).
    */
  def advance(in: SubroundIn): SubroundOut = {
    val s = in.subroundIndex
    if (steps != s + 1) {
      expect(s)
      steps = InProgress
      out = SubroundProcessor.process(this, in)
      steps = s + 1
    }
    out
  }

  /** Puts alive owned vertex `v` into sample mode for round k if its degree
    * allows it (Alg. 5 lines 13–15), and records the directory change
    * (v, rate); true if it entered.
    */
  private[engine] def enterSampleMode(v: Int, k: Int, dirV: ArrayBuilder.ofInt, dirRate: ArrayBuilder.ofDouble): Boolean = {
    val j = li(v)
    cfg.sampling match {
      case Some(sp) if sp.canSample(deg(j), k) =>
        mode(j) = 1
        rateArr(j) = sp.rateFor(deg(j), g.n)
        dirV += v; dirRate += rateArr(j)
        true
      case _ => false
    }
  }

  /** The least round k′ > k in which this partition could peel a vertex, for
    * a state quiescent at round k: the least [[keyOf]] its owned vertices
    * have. The bucket structure answers for the vertices out of sample mode
    * and charges its ops; the rest are read from `sampledOwned`.
    */
  private[engine] def leastKey(k: Int): Int = {
    var least = strategy.minKey()
    var i = 0
    while (i < sampledOwned.length) { least = math.min(least, keyOf(sampledOwned(i), k)); i += 1 }
    least
  }

  /** The least round k′ > k in which owned vertex `v`, alive at a quiescent
    * point of round k, could peel: its degree out of sample mode; in sample
    * mode, the first round whose validation it fails, since no hit reaches
    * it in the rounds between. `Int.MaxValue` for a vertex already assigned.
    */
  private[engine] def keyOf(v: Int, k: Int): Int = {
    val j = li(v)
    if (core(j) != -1) Int.MaxValue
    else if (mode(j) == 1) cfg.sampling.get.firstFailing(deg(j), k, cnt(j), rateArr(j))
    else deg(j)
  }

  /** The coreness of the owned vertices, once `s` subrounds have run. */
  def coreAt(s: Int): Array[Int] = { expect(s); core }

  /** A step left in progress by a failed task, or a block evicted and re-read
    * at an older step, fails loudly instead of giving a wrong coreness.
    */
  private def expect(s: Int): Unit = if (steps != s) {
    val at = if (steps == InProgress) "a step in progress" else s"step $steps"
    throw new IllegalStateException(s"partition ${g.pid}: state at $at, expected step $s")
  }
}

object PartitionState {
  private final val InProgress = -1
}
