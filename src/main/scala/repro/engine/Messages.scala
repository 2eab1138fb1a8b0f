package repro.engine

/** Input of one subround (the Spark exchange ships it in the step's task
  * closure): every partition's output of the previous subround, in pid
  * order (the init outputs for the first subround). Every partition applies every output's peeled vertices and
  * sampler-directory changes, and the messages whose target it owns. The
  * directory is replicated so *senders* can decide dec-vs-hit, mirroring
  * the shared-memory read of σ[u].
  */
final case class SubroundIn(
    k: Int,
    roundStart: Boolean,
    subroundIndex: Int,
    outs: Array[SubroundOut]) extends Serializable

/** Per-subround operation counters of one partition (feeds the cost model).
  *
  * `work` is the partition's total unit-operation count this subround — edge
  * traversals, message applications, structure operations, histogram
  * operations and frontier scans all included, so the per-subround max over
  * partitions is the subround's critical path (contention at a hot owner
  * shows up here because the owner applies its inbound messages serially).
  *
  * The last three fields are the partition's state after the subround; the
  * driver combines them over partitions to decide how the peel advances.
  * `leastKey` is the partition's vote to halt: the least round k′ > k at
  * which it could peel a vertex if it is quiescent (no frontier, no pending
  * recount, no message sent), else −1. `+` takes the min, so the min is
  * ≥ 0 exactly when every partition is quiescent, which ends the round.
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
    peeledOwnedTotal: Int,
    sampledNow: Int,
    leastKey: Int) extends Serializable {

  /** Field-wise sum; the two per-vertex/per-chain maxima take the max, and
    * `leastKey` the min.
    */
  def +(o: SubCounters): SubCounters = SubCounters(
    work + o.work, edgeTraversals + o.edgeTraversals, decMsgs + o.decMsgs,
    hitMsgs + o.hitMsgs, localDecs + o.localDecs, structOps + o.structOps,
    histogramOps + o.histogramOps, inboundApplied + o.inboundApplied,
    math.max(maxInboundPerVertex, o.maxInboundPerVertex), math.max(maxChainOps, o.maxChainOps),
    frontierProcessed + o.frontierProcessed, peeledOwnedTotal + o.peeledOwnedTotal,
    sampledNow + o.sampledNow, math.min(leastKey, o.leastKey))

  /** This partition's critical path in the subround: the longest serial
    * chain (a single local search — unbounded for PKC, ≤128 for VGC) plus
    * the serialized contention at the hottest vertex (atomic updates to one
    * location serialize; each costs `CostWeights.Contention` cache transfers).
    * Taken per partition, before the max over partitions.
    */
  def span: Long = maxChainOps + CostWeights.Contention.toLong * maxInboundPerVertex
}

object SubCounters {
  val Zero: SubCounters = SubCounters(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, Int.MaxValue)
}

/** Output of one partition for one subround. Message targets are global
  * ids owned by any partition; each receiver picks out its own.
  *
  * @param decs      decrement targets (Offline: one per distinct target, sorted)
  * @param decCounts aligned with `decs` in Offline mode, else null
  * @param hits      sample-hit targets
  * @param dirV      sampler-directory changes in the order they were made:
  *                  `dirV(i)` gets rate `dirRate(i)`; rate 0 removes it
  */
final case class SubroundOut(
    pid: Int,
    decs: Array[Int],
    decCounts: Array[Int],
    hits: Array[Int],
    newlyPeeled: Array[Int],
    dirV: Array[Int],
    dirRate: Array[Double],
    counters: SubCounters,
    error: Boolean) extends Serializable
