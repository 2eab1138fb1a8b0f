package repro.engine

import org.apache.spark.rdd.RDD
import repro.core.KCoreConfig
import scala.annotation.tailrec

/** Raised when a sampled vertex's exact recount shows it missed its peeling
  * round (paper §4.1.4) — the caller restarts with sampling disabled.
  */
final class SamplingError(msg: String) extends RuntimeException(msg)

/** Weights used when folding counters into the modeled critical path. */
object CostWeights {
  /** Unit-ops charged per serialized atomic update at a contended vertex.
    * Under contention every CAS costs a cross-core cache-line transfer plus
    * retries (~50–100 ns on the paper's 4-socket Xeons vs ~1 ns per plain
    * op), and the updates to one location are inherently serial — so the
    * hottest vertex contributes maxInbound × this weight to the subround's
    * critical path.
    */
  val Contention = 64
}

/** Aggregated metrics of one parallel k-core run (feeds the cost model and
  * the table harnesses).
  *
  * @param subrounds         total BSP subrounds executed (Spark jobs — each
  *                          one pays the scheduling overhead ω)
  * @param subroundsNonEmpty subrounds that peeled ≥ 1 vertex — the paper's
  *                          peeling complexity ρ (ρ′ with VGC)
  * @param spanOps           Σ over subrounds of the max per-partition work —
  *                          the modeled critical path excluding ω
  * @param maxContention     max messages landing on a single vertex in one
  *                          subround (the atomic-contention analogue)
  */
final case class RunMetrics(
    algo: String,
    wallMillis: Double,
    rounds: Int,
    subrounds: Int,
    subroundsNonEmpty: Int,
    work: Long,
    edgeTraversals: Long,
    structOps: Long,
    histogramOps: Long,
    decMsgs: Long,
    hitMsgs: Long,
    localDecs: Long,
    inboundApplied: Long,
    maxContention: Int,
    spanOps: Long,
    maxSampled: Int,
    restarts: Int)

/** The BSP peeling engine: driver-orchestrated subrounds, each one Spark job
  * over an `RDD[(PartitionState, SubroundOut)]` that is `localCheckpoint`ed
  * (the init job too), so the lineage is one step deep. The driver collects
  * every partition's output and passes the whole list, unrouted, to the next
  * step in its task closure. See DESIGN.md §5 for the full protocol.
  *
  * The `nParts` logical partitions define the algorithm: vertex ownership,
  * the RNG streams and every counter. They are hosted by
  * `min(nParts, defaultParallelism)` Spark tasks, each running the kernel on
  * its states in turn, so a subround is one wave of tasks. The task count
  * changes no result.
  */
object PeelEngine {

  /** The local property that `SparkContext.setJobDescription` sets. */
  private val JobDescription = "spark.job.description"

  /** Run k-core under `cfg` over a cached base graph. Restarts without
    * sampling if a recount detects a missed peel (never observed with the
    * default μ — exercised in tests by forcing a tiny μ). `wallMillis`
    * covers every attempt.
    */
  def run(base: RDD[PartitionGraph], n: Int, maxDeg: Int, cfg: KCoreConfig): (Array[Int], RunMetrics) =
    run(base, n, maxDeg, cfg, math.min(base.getNumPartitions, base.sparkContext.defaultParallelism))

  /** As above, with the partitions hosted by `tasks` Spark tasks (tests vary
    * it to show that the grouping changes no counter). Every engine job is
    * labelled `kcore <algo> init|k=<k> sub=<s>|gather`; the caller's job
    * description is restored afterwards.
    */
  private[engine] def run(base: RDD[PartitionGraph], n: Int, maxDeg: Int, cfg: KCoreConfig,
                          tasks: Int): (Array[Int], RunMetrics) = {
    val sc = base.sparkContext
    val callerDescription = sc.getLocalProperty(JobDescription)
    val hosted = base.coalesce(tasks)
    val t0 = System.nanoTime()
    @tailrec def attempt(cfg: KCoreConfig, restarts: Int): (Array[Int], RunMetrics) =
      (try Right(runOnce(hosted, n, maxDeg, cfg)) catch { case e: SamplingError => Left(e) }) match {
        case Right((core, m)) =>
          (core, m.copy(wallMillis = (System.nanoTime() - t0) / 1e6, restarts = restarts))
        case Left(e) =>
          require(cfg.sampling.isDefined, s"sampling error without sampling: ${e.getMessage}")
          attempt(cfg.withoutSampling, restarts + 1)
      }
    try attempt(cfg, 0) finally sc.setJobDescription(callerDescription)
  }

  /** One subround over the states of `prev`, uncached. Each state is
    * deep-copied first, so `prev`'s cached blocks are never mutated and a
    * re-executed task sees the same input.
    */
  private[engine] def step(prev: RDD[(PartitionState, SubroundOut)], in: SubroundIn,
                           cfg: KCoreConfig): RDD[(PartitionState, SubroundOut)] =
    prev.mapPartitions(_.map { case (st0, _) =>
      val st = st0.deepCopy()
      (st, SubroundProcessor.process(st, in, cfg))
    }, preservesPartitioning = true)

  /** One attempt; its metrics carry no wall time and no restarts. */
  private def runOnce(base: RDD[PartitionGraph], n: Int, maxDeg: Int,
                      cfg: KCoreConfig): (Array[Int], RunMetrics) = {
    val sc = base.sparkContext
    def label(what: String): Unit = sc.setJobDescription(s"kcore ${cfg.name} $what")
    // Checkpoints the step as its collect runs: no extra job.
    def outputs(r: RDD[(PartitionState, SubroundOut)]): Array[SubroundOut] =
      r.localCheckpoint().map(_._2).collect().sortBy(_.pid)

    // --- init ---------------------------------------------------------------
    label("init")
    var cur = base.mapPartitions(_.map(g => PartitionState.init(g, cfg, maxDeg)), preservesPartitioning = true)
    var outs = outputs(cur)

    // --- metrics accumulators ----------------------------------------------
    var k = 0
    var sub = 0
    var roundStart = true
    var rounds = 0
    var rhoPrime = 0
    var total = SubCounters.Zero
    var spanOps = 0L
    var maxSampled = 0

    var done = false
    while (!done) {
      if (roundStart) rounds += 1
      label(s"k=$k sub=$sub")
      val prev = cur
      cur = step(prev, SubroundIn(k, roundStart, sub, outs), cfg)
      outs = outputs(cur)
      prev.unpersist(false) // only now: a retried task of `cur` reads `prev`
      sub += 1

      // --- aggregate --------------------------------------------------------
      val c = outs.iterator.map(_.counters).reduce(_ + _)
      total += c
      spanOps += outs.iterator.map(_.counters.span).max
      if (c.frontierProcessed > 0) rhoPrime += 1
      if (c.sampledNow > maxSampled) maxSampled = c.sampledNow
      if (outs.exists(_.error) && cfg.sampling.isDefined)
        throw new SamplingError(s"missed peel detected at round $k subround $sub")

      // --- advance ----------------------------------------------------------
      // A round ends when no partition has work or messages pending; the
      // next round's input is these outputs, which then carry no messages.
      val noMsgs = outs.forall(o => o.decs.isEmpty && o.hits.isEmpty)
      roundStart = c.localFrontierSize == 0 && noMsgs && c.pendingRecounts == 0
      if (roundStart && c.peeledOwnedTotal >= n) done = true
      else if (roundStart) k += 1
    }

    // --- collect result -----------------------------------------------------
    label("gather")
    val core = new Array[Int](n)
    cur.flatMap { case (st, _) =>
      st.core.indices.iterator.map(i => (st.g.lo + i, st.core(i)))
    }.collect().foreach { case (v, c) => core(v) = c }
    cur.unpersist(false)

    val metrics = RunMetrics(cfg.name, 0, rounds, sub, rhoPrime, total.work, total.edgeTraversals,
      total.structOps, total.histogramOps, total.decMsgs, total.hitMsgs, total.localDecs,
      total.inboundApplied, total.maxInboundPerVertex, spanOps, maxSampled, 0)
    (core, metrics)
  }
}
