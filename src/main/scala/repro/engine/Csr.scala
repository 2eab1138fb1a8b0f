package repro.engine

import org.apache.spark.Partitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.LocalGraph

/** One partition's share of the graph: the CSR over its owned contiguous
  * vertex range [lo, hi). Neighbor ids are global.
  */
final case class PartitionGraph(
    pid: Int, n: Int, lo: Int, hi: Int,
    indptr: Array[Int], adj: Array[Int]) extends Serializable {

  def nOwned: Int = hi - lo
  @inline def owns(v: Int): Boolean = v >= lo && v < hi
  @inline def degreeLocal(i: Int): Int = indptr(i + 1) - indptr(i)

  @inline def foreachNeighborLocal(i: Int)(f: Int => Unit): Unit = {
    var p = indptr(i)
    val end = indptr(i + 1)
    while (p < end) { f(adj(p)); p += 1 }
  }
}

/** Distributed CSR construction and the vertex→partition ownership map. */
object Csr {

  /** lo bound of partition p for n vertices over nParts ranges. */
  @inline def boundOf(p: Int, n: Int, nParts: Int): Int = ((p.toLong * n) / nParts).toInt

  /** Owner partition of vertex v in [0, n): the largest p with boundOf(p) ≤ v.
    * ⌊p·n/nParts⌋ ≤ v holds iff p·n < (v + 1)·nParts, so the closed form is exact.
    */
  @inline def ownerOf(v: Int, n: Int, nParts: Int): Int = (((v.toLong + 1) * nParts - 1) / n).toInt

  final class PidPartitioner(val nParts: Int, val n: Int) extends Partitioner {
    def numPartitions: Int = nParts
    def getPartition(key: Any): Int = ownerOf(key.asInstanceOf[Int], n, nParts)
  }

  /** Build the per-partition CSRs from a symmetric edge DataFrame with no
    * self-loops, which may hold duplicates ([[repro.graph.GraphOps.symmetrize]]
    * gives one). This is the one shuffle: edges go to the owner of their
    * source, in `nParts` partitions; each partition sorts its share, drops
    * duplicates and lays out the CSR. The result is cached by the caller. An
    * edge with an id outside [0, n) fails the first job that reads it.
    */
  def buildDistributed(spark: SparkSession, edges: DataFrame, n: Int, nParts: Int): RDD[PartitionGraph] = {
    val pairs: RDD[(Int, Int)] = edges.select("src", "dst").rdd.map { r =>
      val s = r.get(0).asInstanceOf[Number].longValue()
      val d = r.get(1).asInstanceOf[Number].longValue()
      require(s >= 0 && s < n && d >= 0 && d < n, s"edge ($s, $d) has a vertex id outside [0, $n)")
      (s.toInt, d.toInt)
    }
    pairs
      .partitionBy(new PidPartitioner(nParts, n))
      .mapPartitionsWithIndex({ (pid, it) =>
        val packed = new scala.collection.mutable.ArrayBuilder.ofLong
        it.foreach { case (s, d) => packed += (s.toLong << 32) | (d.toLong & 0xffffffffL) }
        val arr = packed.result()
        java.util.Arrays.sort(arr)
        val lo = boundOf(pid, n, nParts)
        val hi = boundOf(pid + 1, n, nParts)
        val (indptr, adj) = LocalGraph.layout(arr, LocalGraph.dedupSorted(arr), lo, hi - lo)
        Iterator.single(PartitionGraph(pid, n, lo, hi, indptr, adj))
      }, preservesPartitioning = true)
  }

  /** Driver-side split of a LocalGraph — used by `ParallelKCore.prepareLocal`,
    * and by tests to verify the distributed build.
    */
  def buildLocal(g: LocalGraph, nParts: Int): Array[PartitionGraph] = {
    Array.tabulate(nParts) { pid =>
      val lo = boundOf(pid, g.n, nParts)
      val hi = boundOf(pid + 1, g.n, nParts)
      // The range's slice of g's CSR, offsets shifted to start at 0.
      val indptr = java.util.Arrays.copyOfRange(g.indptr, lo, hi + 1)
      val base = indptr(0)
      var i = 0
      while (i < indptr.length) { indptr(i) -= base; i += 1 }
      PartitionGraph(pid, g.n, lo, hi, indptr, java.util.Arrays.copyOfRange(g.adj, base, g.indptr(hi)))
    }
  }
}
