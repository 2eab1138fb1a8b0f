package repro.engine

import repro.core.{FixedBuckets, Hierarchical, KCoreConfig, OneBucket, ScanAllBuckets}
import repro.structures.{BucketStrategy, FixedBucketsStrategy, HierarchicalStrategy, OneBucketStrategy, ScanAllStrategy}

/** The mutable per-partition state of the peeling engine. One instance per
  * logical partition (pid); a Spark task may host several of them. Each
  * subround advances it in place ([[advance]]): the Spark exchange keeps it
  * in a cached block for the whole run.
  *
  * Arrays are indexed by local id (global − lo) except `peeled`, which is a
  * bitset over all n vertices — each partition tracks the *global* processed
  * set (updated from every partition's newly peeled vertices in each
  * subround's input) so exact recounts of sampled vertices can scan their
  * adjacency locally.
  */
final class PartitionState(
    val g: PartitionGraph,
    val cfg: KCoreConfig,
    val deg: Array[Int],
    val core: Array[Int],            // -1 until assigned to a frontier
    val peeled: Array[Long],         // global bitset: decrements already issued
    val mode: Array[Byte],           // 0 off, 1 sampling, 2 exiting (recount pending)
    val cnt: Array[Int],
    val rateArr: Array[Double],
    var frontier: Array[Int],        // owned global ids awaiting processing
    var pendingRecount: Array[Int],  // owned global ids to recount this subround
    var sampledOwned: Array[Int],    // owned global ids possibly in sample mode (lazily filtered)
    val strategy: BucketStrategy,
    val dir: java.util.HashMap[Integer, java.lang.Double], // replica of the global sampler directory
    var peeledOwnedCount: Int,
    private var out: SubroundOut) extends Serializable {
  import PartitionState.InProgress

  private var steps = 0 // subrounds run so far, or InProgress

  @inline def li(v: Int): Int = v - g.lo
  @inline def isPeeledBit(v: Int): Boolean = (peeled(v >>> 6) & (1L << (v & 63))) != 0
  @inline def setPeeledBit(v: Int): Unit = peeled(v >>> 6) |= (1L << (v & 63))

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

  /** The least round k′ > k in which this partition could peel a vertex, for
    * a state quiescent at round k: the least [[keyOf]] its owned vertices
    * have. The bucket structure answers for the vertices out of sample mode
    * and charges its ops; the rest are read from `sampledOwned`.
    */
  private[engine] def leastKey(k: Int): Int = {
    var least = strategy.minKey(v => deg(li(v)), v => core(li(v)) == -1, v => mode(li(v)) == 0)
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

  /** Fresh state for one partition under `cfg`. Its [[PartitionState.lastOut]]
    * carries this partition's initial sampler-directory entries (vertices put
    * into sample mode at k = 0), part of the first subround's input, and the
    * least key the first round may start at.
    */
  def init(g: PartitionGraph, cfg: KCoreConfig): PartitionState = {
    val nOwned = g.nOwned
    val deg = Array.tabulate(nOwned)(g.degreeLocal)
    val core = Array.fill(nOwned)(-1)
    val peeled = new Array[Long]((g.n >>> 6) + 1)
    val mode = new Array[Byte](nOwned)
    val cnt = new Array[Int](nOwned)
    val rate = new Array[Double](nOwned)
    val strategy: BucketStrategy = cfg.buckets match {
      case ScanAllBuckets => new ScanAllStrategy
      case OneBucket => new OneBucketStrategy
      case FixedBuckets => new FixedBucketsStrategy
      case Hierarchical => new HierarchicalStrategy(KCoreConfig.Theta)
    }
    strategy.init(Array.tabulate(nOwned)(g.lo + _))
    val dir = new java.util.HashMap[Integer, java.lang.Double]()
    val dirV = new scala.collection.mutable.ArrayBuilder.ofInt
    val dirRate = new scala.collection.mutable.ArrayBuilder.ofDouble
    val sampled = new scala.collection.mutable.ArrayBuilder.ofInt
    cfg.sampling.foreach { sp =>
      var i = 0
      while (i < nOwned) {
        if (sp.canSample(deg(i), 0)) {
          mode(i) = 1
          rate(i) = sp.rateFor(deg(i), g.n)
          dirV += (g.lo + i)
          dirRate += rate(i)
          sampled += (g.lo + i)
        }
        i += 1
      }
    }
    val e = Array.emptyIntArray
    val st = new PartitionState(g, cfg, deg, core, peeled, mode, cnt, rate, e, e, sampled.result(), strategy, dir, 0, null)
    val least = st.leastKey(-1)
    val counters = SubCounters.Zero.copy(work = strategy.ops + st.sampledOwned.length,
      structOps = strategy.ops, leastKey = least)
    st.out = SubroundOut(g.pid, e, null, e, e, dirV.result(), dirRate.result(), counters, error = false)
    st
  }
}
