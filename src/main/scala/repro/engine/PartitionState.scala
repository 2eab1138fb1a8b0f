package repro.engine

import repro.core.{FixedBuckets, Hierarchical, KCoreConfig, OneBucket, ScanAllBuckets}
import repro.structures.{BucketStrategy, FixedBucketsStrategy, HierarchicalStrategy, OneBucketStrategy, ScanAllStrategy}

/** The mutable per-partition state of the peeling engine. One instance per
  * logical partition (pid); a Spark task may host several of them. Each
  * subround advances it in place: the Spark exchange keeps it in a cached
  * block for the whole run.
  *
  * Arrays are indexed by local id (global − lo) except `peeled`, which is a
  * bitset over all n vertices — each partition tracks the *global* processed
  * set (updated from every partition's newly peeled vertices in each
  * subround's input) so exact recounts of sampled vertices can scan their
  * adjacency locally.
  */
final class PartitionState(
    val g: PartitionGraph,
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
    var peeledOwnedCount: Int) extends Serializable {

  @inline def li(v: Int): Int = v - g.lo
  @inline def isPeeledBit(v: Int): Boolean = (peeled(v >>> 6) & (1L << (v & 63))) != 0
  @inline def setPeeledBit(v: Int): Unit = peeled(v >>> 6) |= (1L << (v & 63))
}

object PartitionState {

  /** Fresh state for one partition under `cfg`. Returns the state plus an
    * output that carries this partition's initial sampler-directory entries
    * (vertices put into sample mode at k = 0), the first subround's input.
    */
  def init(g: PartitionGraph, cfg: KCoreConfig): (PartitionState, SubroundOut) = {
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
    val owned = Array.tabulate(nOwned)(i => g.lo + i)
    strategy.init(owned, v => deg(v - g.lo))
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
    val st = new PartitionState(g, deg, core, peeled, mode, cnt, rate,
      Array.emptyIntArray, Array.emptyIntArray, sampled.result(), strategy, dir, 0)
    val e = Array.emptyIntArray
    (st, SubroundOut(g.pid, e, null, e, e, dirV.result(), dirRate.result(), SubCounters.Zero, error = false))
  }
}
