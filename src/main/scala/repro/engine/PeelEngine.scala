package repro.engine

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import repro.core.KCoreConfig
import scala.annotation.tailrec
import scala.reflect.ClassTag

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
  * @param rounds            rounds run, one per key k visited: a round starts
  *                          at the least key still in use, so k skips the
  *                          keys no vertex has (ParK and PKC visit every k)
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

/** The peel loop's only contact with the partitions: it builds their
  * states, runs one subround on all of them, and gathers the coreness.
  * Outputs come in pid order. One exchange serves one attempt.
  */
private[engine] trait Exchange {
  /** Fresh states; the outputs carry the k = 0 sampler-directory entries. */
  def init(): Array[SubroundOut]
  def step(in: SubroundIn): Array[SubroundOut]
  /** Coreness of every vertex, from states that have run `steps` subrounds. */
  def gather(steps: Int): Array[Int]
  /** Drops what the exchange still holds; for an attempt the loop abandons. */
  def release(): Unit
}

/** The BSP peeling engine (paper Alg. 1): rounds of subrounds over the
  * `nParts` logical partitions. The loop here advances k, sums the counters
  * and restarts a run that missed a peel; it reaches the partitions only
  * through an [[Exchange]], once per subround (the ω of the burdened span).
  * The production exchange is [[SparkExchange]], one Spark job per call.
  * See DESIGN.md §5 for the full protocol.
  *
  * The logical partitions define the algorithm: vertex ownership, the RNG
  * streams and every counter. How an exchange hosts them changes no result.
  */
object PeelEngine {

  /** Run k-core under `cfg` over a cached base graph, its partitions hosted
    * by `min(nParts, defaultParallelism)` Spark tasks, so a subround is one
    * wave of tasks. Every engine job is labelled `kcore <algo> init|k=<k>
    * sub=<s>|gather`; the caller's job description is restored afterwards.
    */
  def run(base: RDD[PartitionGraph], n: Int, cfg: KCoreConfig): (Array[Int], RunMetrics) = {
    val sc = base.sparkContext
    val callerDescription = sc.getLocalProperty("spark.job.description") // what setJobDescription sets
    val hosted = base.coalesce(math.min(base.getNumPartitions, sc.defaultParallelism))
    try run(n, cfg, new SparkExchange(hosted, _)) finally sc.setJobDescription(callerDescription)
  }

  /** Run k-core under `cfg` on the exchanges that `exchange` builds, one per
    * attempt. Restarts without sampling if a recount detects a missed peel
    * (rare with the default μ: every sampling combo misses one on the
    * suite's HPL at 16 partitions, which a test pins; other tests force one
    * with a tiny μ). `wallMillis` covers every attempt.
    */
  private[engine] def run(n: Int, cfg: KCoreConfig,
                          exchange: KCoreConfig => Exchange): (Array[Int], RunMetrics) = {
    val t0 = System.nanoTime()
    @tailrec def attempt(cfg: KCoreConfig, restarts: Int): (Array[Int], RunMetrics) = {
      val ex = exchange(cfg)
      peel(ex, n, cfg) match {
        case Some((core, m)) =>
          (core, m.copy(wallMillis = (System.nanoTime() - t0) / 1e6, restarts = restarts))
        case None =>
          ex.release()
          attempt(cfg.copy(sampling = None), restarts + 1)
      }
    }
    attempt(cfg, 0)
  }

  /** One attempt; None if a sampled vertex missed its peeling round (paper
    * §4.1.4). Its metrics carry no wall time and no restarts.
    */
  private def peel(ex: Exchange, n: Int, cfg: KCoreConfig): Option[(Array[Int], RunMetrics)] = {
    var outs = ex.init()

    // --- metrics accumulators ----------------------------------------------
    // The init outputs carry the first least-key query: its cost, and the
    // key the first round starts at.
    var total = outs.iterator.map(_.counters).reduce(_ + _)
    var k = total.leastKey
    var sub = 0
    var roundStart = true
    var rounds = 0
    var rhoPrime = 0
    var spanOps = 0L
    var maxSampled = 0

    var done = false
    while (!done) {
      if (roundStart) rounds += 1
      outs = ex.step(SubroundIn(k, roundStart, sub, outs))
      sub += 1

      // --- aggregate --------------------------------------------------------
      val c = outs.iterator.map(_.counters).reduce(_ + _)
      total += c
      spanOps += outs.iterator.map(_.counters.span).max
      if (c.frontierProcessed > 0) rhoPrime += 1
      if (c.sampledNow > maxSampled) maxSampled = c.sampledNow
      if (cfg.sampling.isDefined && outs.exists(_.error)) return None

      // --- advance ----------------------------------------------------------
      // A round ends when every partition votes to halt (a least key ≥ 0:
      // no work or messages pending); the next round's input is these
      // outputs, which then carry no messages. The next round is the least
      // key still in use: the rounds between would peel nothing. ScanAll
      // answers 0, so ParK and PKC take k + 1.
      roundStart = c.leastKey >= 0
      if (roundStart && c.peeledOwnedTotal >= n) done = true
      else if (roundStart) k = math.max(k + 1, c.leastKey)
    }

    Some((ex.gather(sub), RunMetrics(cfg.name, 0, rounds, sub, rhoPrime, total.work, total.edgeTraversals,
      total.structOps, total.histogramOps, total.decMsgs, total.hitMsgs, total.localDecs,
      total.inboundApplied, total.maxInboundPerVertex, spanOps, maxSampled, 0)))
  }
}

/** Each call is one Spark job over `hosted`, whose tasks may each host
  * several partitions (tests vary their number). The init job builds one
  * [[PartitionState]] per partition and `localCheckpoint`s them: the only
  * checkpoint. It cuts the lineage once, so no later task ships the graph's
  * source partitions, and the blocks stay cached, deserialised, for the whole
  * attempt. Each step is a job on that same RDD that advances every state in
  * place: it builds no RDD and copies no state. Its input, every partition's
  * previous output, rides in the step's task function.
  *
  * Every function handed to Spark is a named class, not a lambda: Spark's
  * closure cleaner returns at once for those, where for a lambda it reads and
  * parses the class file that defines it (`RDD.collect` alone costs two such
  * parses, of `RDD` and `SparkContext`, per job). See DESIGN.md §5.
  */
private[engine] final class SparkExchange(hosted: RDD[PartitionGraph], cfg: KCoreConfig) extends Exchange {
  import SparkExchange._
  private[engine] var states: RDD[PartitionState] = _ // read by tests

  /** One job over all of `states`' partitions; each task's array, in partition order. */
  private def job[U: ClassTag](what: String, f: (TaskContext, Iterator[PartitionState]) => Array[U]): Array[U] = {
    hosted.sparkContext.setJobDescription(s"kcore ${cfg.name} $what")
    val parts = new Array[Array[U]](states.getNumPartitions)
    hosted.sparkContext.runJob(states, f, parts.indices, (i: Int, a: Array[U]) => parts(i) = a)
    parts.flatten
  }

  // The init job takes the checkpoint as it runs: no extra job.
  def init(): Array[SubroundOut] = {
    states = hosted.mapPartitions(Init(cfg), preservesPartitioning = true).localCheckpoint()
    job("init", Outputs).sortBy(_.pid)
  }

  def step(in: SubroundIn): Array[SubroundOut] =
    job(s"k=${in.k} sub=${in.subroundIndex}", Step(in)).sortBy(_.pid)

  // The pid ranges are contiguous and cover [0, n) in pid order.
  def gather(steps: Int): Array[Int] =
    try job("gather", Cores(steps)).sortBy(_._1).flatMap(_._2)
    finally release()

  def release(): Unit = states.unpersist(false)
}

private[engine] object SparkExchange {
  private final case class Init(cfg: KCoreConfig) extends (Iterator[PartitionGraph] => Iterator[PartitionState]) {
    def apply(it: Iterator[PartitionGraph]): Iterator[PartitionState] = it.map(new PartitionState(_, cfg))
  }

  private final case class Step(in: SubroundIn)
      extends ((TaskContext, Iterator[PartitionState]) => Array[SubroundOut]) {
    def apply(tc: TaskContext, it: Iterator[PartitionState]): Array[SubroundOut] = it.map { st =>
      injectFault(st.g.pid, in, afterAdvance = false)
      val out = st.advance(in)
      injectFault(st.g.pid, in, afterAdvance = true)
      out
    }.toArray
  }

  /** Test-only: the task that steps partition 0 at subround `sub` throws,
    * before or after that state advances. It fires once: the step consumes
    * it from [[fault]]. Tasks see it only in the driver's JVM (a local master).
    */
  private[engine] final case class Fault(sub: Int, afterAdvance: Boolean)
  private[engine] val fault = new java.util.concurrent.atomic.AtomicReference[Fault]()

  private def injectFault(pid: Int, in: SubroundIn, afterAdvance: Boolean): Unit = {
    val f = fault.get
    if (f != null && pid == 0 && f == Fault(in.subroundIndex, afterAdvance) && fault.compareAndSet(f, null))
      throw new RuntimeException(s"injected fault: partition 0, subround ${f.sub}, afterAdvance ${f.afterAdvance}")
  }

  private object Outputs extends ((TaskContext, Iterator[PartitionState]) => Array[SubroundOut]) with Serializable {
    def apply(tc: TaskContext, it: Iterator[PartitionState]): Array[SubroundOut] = it.map(_.lastOut).toArray
  }

  private final case class Cores(steps: Int) extends ((TaskContext, Iterator[PartitionState]) => Array[(Int, Array[Int])]) {
    def apply(tc: TaskContext, it: Iterator[PartitionState]): Array[(Int, Array[Int])] =
      it.map(st => (st.g.pid, st.coreAt(steps))).toArray
  }
}
