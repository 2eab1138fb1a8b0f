package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.engine.{Csr, PartitionGraph, PeelEngine, RunMetrics}
import repro.graph.{GraphOps, LocalGraph}

/** A prepared (distributed, cached) graph that several configurations can
  * share — benches run 12 algorithms per graph over one CSR build.
  */
final case class GraphHandle(base: RDD[PartitionGraph], n: Int, nParts: Int) {
  def unpersist(): Unit = base.unpersist(false)
}

/** Public API of the parallel k-core decomposition. */
object ParallelKCore {

  /** Lazy distributed CSR build from a symmetric edge DataFrame with no
    * self-loops, duplicates allowed (as `GraphOps.symmetrize` gives): one
    * shuffle into `nParts` partitions, which drops the duplicates.
    */
  def prepare(spark: SparkSession, edges: DataFrame, n: Int, nParts: Int = 16): GraphHandle = {
    requirePartitions(nParts)
    val base = Csr.buildDistributed(spark, edges, n, nParts).persist(StorageLevel.MEMORY_ONLY)
    GraphHandle(base, n, nParts)
  }

  /** Driver-side split of an already-canonical LocalGraph (used by tests and
    * benches to skip the DataFrame round-trip when the graph is in hand).
    */
  def prepareLocal(spark: SparkSession, g: LocalGraph, nParts: Int = 16): GraphHandle = {
    requirePartitions(nParts)
    val parts = Csr.buildLocal(g, nParts)
    // One PartitionGraph per RDD partition. Receivers pick out messages by
    // vertex ownership (g.lo until g.hi), so index alignment is convenient
    // but not required.
    val base = spark.sparkContext
      .parallelize(parts.toIndexedSeq, nParts)
      .persist(StorageLevel.MEMORY_ONLY)
    GraphHandle(base, g.n, nParts)
  }

  private def requirePartitions(nParts: Int): Unit =
    require(nParts >= 1, s"nParts must be at least 1, got $nParts")

  /** Run one configuration; returns per-vertex coreness plus run metrics. */
  def run(handle: GraphHandle, cfg: KCoreConfig): (Array[Int], RunMetrics) =
    PeelEngine.run(handle.base, handle.n, cfg)

  /** DataFrame-in / DataFrame-out surface: takes a (possibly raw) edge list,
    * adds the reverse of every pair and drops self-loops in one narrow
    * Catalyst scan (`GraphOps.symmetrize`), builds the CSR in one shuffle
    * that also drops duplicate edges (`prepare`), runs the decomposition, and
    * returns a (vertex, coreness) DataFrame. `spark.sql.shuffle.partitions`
    * plays no part.
    */
  def runDF(spark: SparkSession, rawEdges: DataFrame, n: Int, cfg: KCoreConfig): (DataFrame, RunMetrics) = {
    val edges = GraphOps.symmetrize(rawEdges)
    val handle = prepare(spark, edges, n, cfg.nParts)
    try {
      val (core, metrics) = run(handle, cfg)
      import spark.implicits._
      val df = spark.sparkContext
        .parallelize(core.indices.map(v => (v, core(v))), math.min(16, math.max(1, core.length / 10000 + 1)))
        .toDF("vertex", "coreness")
      (df, metrics)
    } finally handle.unpersist()
  }
}
