package repro.graph

import scala.collection.mutable.ArrayBuilder

/** An undirected graph in CSR form, canonical for the whole reproduction.
  *
  * Both directions of every undirected edge are stored, the adjacency of each
  * vertex is sorted, self-loops and duplicate edges have been removed. `m` is
  * the number of undirected edges, so `adj.length == 2 * m`.
  *
  * The driver-side sequential algorithms (BZ, the naive reference, the ρ
  * counter) run directly on this structure; the Spark surface is produced by
  * [[GraphOps.toDF]] and the distributed CSR build is tested for equality
  * against it.
  */
final case class LocalGraph(n: Int, indptr: Array[Int], adj: Array[Int]) {
  /** Number of undirected edges. */
  def m: Long = adj.length / 2L

  /** Degree of vertex v in the input graph. */
  def degree(v: Int): Int = indptr(v + 1) - indptr(v)

  /** Iterate neighbors of v through `f`. */
  @inline def foreachNeighbor(v: Int)(f: Int => Unit): Unit = {
    var i = indptr(v)
    val end = indptr(v + 1)
    while (i < end) { f(adj(i)); i += 1 }
  }
}

object LocalGraph {

  /** Build the canonical undirected CSR from a raw directed pair list.
    *
    * Self-loops are dropped; each surviving pair is inserted in both
    * directions; duplicates (either from the generator or from the
    * symmetrization) are removed.
    */
  def fromPairs(n: Int, srcs: Array[Int], dsts: Array[Int]): LocalGraph = {
    require(srcs.length == dsts.length, "src/dst length mismatch")
    // Pack both directions as src.toLong << 32 | dst, sort, dedup.
    val packed = new ArrayBuilder.ofLong
    packed.sizeHint(srcs.length * 2)
    var i = 0
    while (i < srcs.length) {
      val s = srcs(i); val d = dsts(i)
      require(s >= 0 && s < n && d >= 0 && d < n, s"edge ($s,$d) out of range [0,$n)")
      if (s != d) {
        packed += (s.toLong << 32) | (d.toLong & 0xffffffffL)
        packed += (d.toLong << 32) | (s.toLong & 0xffffffffL)
      }
      i += 1
    }
    val arr = packed.result()
    java.util.Arrays.sort(arr)
    val (indptr, adj) = layout(arr, dedupSorted(arr), 0, n)
    LocalGraph(n, indptr, adj)
  }

  /** Drops adjacent duplicates from the sorted `arr` in place; returns the
    * length of the distinct prefix.
    */
  private[repro] def dedupSorted(arr: Array[Long]): Int = {
    var w = 0
    var i = 0
    while (i < arr.length) {
      if (w == 0 || arr(w - 1) != arr(i)) { arr(w) = arr(i); w += 1 }
      i += 1
    }
    w
  }

  /** The CSR `(indptr, adj)` of the first `len` entries of `packed`: edges
    * `src << 32 | dst`, sorted, every src in [lo, lo + nv).
    */
  private[repro] def layout(packed: Array[Long], len: Int, lo: Int, nv: Int): (Array[Int], Array[Int]) = {
    val indptr = new Array[Int](nv + 1)
    val adj = new Array[Int](len)
    var i = 0
    while (i < len) {
      indptr((packed(i) >>> 32).toInt - lo + 1) += 1
      adj(i) = packed(i).toInt
      i += 1
    }
    var v = 0
    while (v < nv) { indptr(v + 1) += indptr(v); v += 1 }
    (indptr, adj)
  }
}
