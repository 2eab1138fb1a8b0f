package repro.engine

/** Broadcast input of one subround. `decs`/`hits` are indexed by destination
  * partition; each partition reads only its own inbox but every partition
  * applies `peeledDelta` and the sampler-directory deltas (the directory is
  * replicated so *senders* can decide dec-vs-hit, mirroring the shared-memory
  * read of σ[u]).
  */
final case class SubroundIn(
    k: Int,
    roundStart: Boolean,
    subroundIndex: Int,
    decs: Array[Array[Int]],
    decCounts: Array[Array[Int]], // aligned with decs in Offline mode, else null
    hits: Array[Array[Int]],
    peeledDelta: Array[Int],
    dirRemove: Array[Int],
    dirAdd: Array[Int],
    dirAddRate: Array[Double]) extends Serializable

object SubroundIn {
  def initial(nParts: Int, dirAdd: Array[Int], dirAddRate: Array[Double]): SubroundIn =
    SubroundIn(0, roundStart = true, 0,
      Array.fill(nParts)(Array.emptyIntArray), null,
      Array.fill(nParts)(Array.emptyIntArray),
      Array.emptyIntArray, Array.emptyIntArray, dirAdd, dirAddRate)
}

/** Per-subround operation counters of one partition (feeds the cost model).
  *
  * `work` is the partition's total unit-operation count this subround — edge
  * traversals, message applications, structure operations, histogram
  * operations and frontier scans all included, so the per-subround max over
  * partitions is the subround's critical path (contention at a hot owner
  * shows up here because the owner applies its inbound messages serially).
  *
  * The last four fields are the partition's state after the subround; the
  * driver sums them over partitions to decide how the peel advances.
  */
final case class SubCounters(
    work: Long,
    edgeTraversals: Long,
    decMsgs: Long,
    hitMsgs: Long,
    localDecs: Long,
    structOps: Long,
    histogramOps: Long,
    inboundApplied: Long,
    maxInboundPerVertex: Int,
    maxChainOps: Long, // ops of the longest single local search (a serial chain)
    frontierProcessed: Int,
    localFrontierSize: Int,
    pendingRecounts: Int,
    peeledOwnedTotal: Int,
    sampledNow: Int) extends Serializable {

  /** Field-wise sum; the two per-vertex/per-chain maxima take the max. */
  def +(o: SubCounters): SubCounters = SubCounters(
    work + o.work, edgeTraversals + o.edgeTraversals, decMsgs + o.decMsgs,
    hitMsgs + o.hitMsgs, localDecs + o.localDecs, structOps + o.structOps,
    histogramOps + o.histogramOps, inboundApplied + o.inboundApplied,
    math.max(maxInboundPerVertex, o.maxInboundPerVertex), math.max(maxChainOps, o.maxChainOps),
    frontierProcessed + o.frontierProcessed, localFrontierSize + o.localFrontierSize,
    pendingRecounts + o.pendingRecounts, peeledOwnedTotal + o.peeledOwnedTotal,
    sampledNow + o.sampledNow)

  /** This partition's critical path in the subround: the longest serial
    * chain (a single local search — unbounded for PKC, ≤128 for VGC) plus
    * the serialized contention at the hottest vertex (atomic updates to one
    * location serialize; each costs `CostWeights.Contention` cache transfers).
    * Taken per partition, before the max over partitions.
    */
  def span: Long = maxChainOps + CostWeights.Contention.toLong * maxInboundPerVertex
}

object SubCounters {
  val Zero: SubCounters = SubCounters(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
}

/** Output of one partition for one subround. */
final case class SubroundOut(
    pid: Int,
    outDecs: Array[Array[Int]],
    outDecCounts: Array[Array[Int]], // null unless Offline
    outHits: Array[Array[Int]],
    newlyPeeled: Array[Int],
    dirRemove: Array[Int],
    dirAdd: Array[Int],
    dirAddRate: Array[Double],
    counters: SubCounters,
    error: Boolean) extends Serializable
