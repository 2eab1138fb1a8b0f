package repro

import java.util.Random
import repro.graph.{GraphGen, LocalGraph}

/** Small deterministic graphs shared across test suites. */
object TestGraphs {

  /** Build from a list of (u, v) pairs. */
  def fromEdgeSeq(n: Int, edges: Seq[(Int, Int)]): LocalGraph =
    LocalGraph.fromPairs(n, edges.map(_._1).toArray, edges.map(_._2).toArray)

  /** Uniform random multigraph (canonicalization dedups). */
  def random(n: Int, m: Int, seed: Long): LocalGraph = {
    val rng = new Random(seed)
    val s = new Array[Int](m); val d = new Array[Int](m)
    var i = 0
    while (i < m) { s(i) = rng.nextInt(n); d(i) = rng.nextInt(n); i += 1 }
    LocalGraph.fromPairs(n, s, d)
  }

  /** The running example of the paper's Fig. 1: a small graph with
    * kmax = 3 — a 4-clique with appendages of coreness 0, 1, 2.
    */
  def figure1: LocalGraph = fromEdgeSeq(11, Seq(
    // 4-clique: 0-1-2-3 (coreness 3)
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    // triangle 4-5-6 attached to the clique (coreness 2)
    (4, 5), (5, 6), (4, 6), (4, 0),
    // path 7-8 (coreness 1) and pendant 9 (coreness 1)
    (7, 8), (8, 4), (9, 0),
    // vertex 10 isolated (coreness 0)
  ))

  val figure1Coreness: Array[Int] = Array(3, 3, 3, 3, 2, 2, 2, 1, 1, 1, 0)

  def clique(n: Int): LocalGraph =
    fromEdgeSeq(n, for (i <- 0 until n; j <- i + 1 until n) yield (i, j))

  def cycle(n: Int): LocalGraph =
    fromEdgeSeq(n, (0 until n).map(i => (i, (i + 1) % n)))

  def path(n: Int): LocalGraph =
    fromEdgeSeq(n, (0 until n - 1).map(i => (i, i + 1)))

  def star(n: Int): LocalGraph =
    fromEdgeSeq(n, (1 until n).map(i => (0, i)))

  def grid(rows: Int, cols: Int): LocalGraph = {
    val el = new GraphGen.EdgeList
    GraphGen.grid2d(el, rows, cols, 0.0, 0)
    LocalGraph.fromPairs(rows * cols, el.srcs, el.dsts)
  }

  def smallHcns(kmax: Int, pad: Int): LocalGraph = {
    val el = new GraphGen.EdgeList
    val used = GraphGen.hcns(el, kmax, pad)
    LocalGraph.fromPairs(used, el.srcs, el.dsts)
  }

  def smallCaterpillar: LocalGraph = {
    val el = new GraphGen.EdgeList
    val used = GraphGen.caterpillar(el, 5, 8, 20)
    LocalGraph.fromPairs(used, el.srcs, el.dsts)
  }

  /** A hub-heavy graph small enough for tests yet skewed enough to trigger
    * sampling at a lowered threshold.
    */
  def hubby(n: Int, nHubs: Int, frac: Double, seed: Long): LocalGraph = {
    val el = new GraphGen.EdgeList
    GraphGen.ba(el, n, 4, seed)
    GraphGen.hubs(el, n, nHubs, frac, seed + 1)
    LocalGraph.fromPairs(n, el.srcs, el.dsts)
  }

  /** Hub 0 whose partition also holds 150 two-vertex pendant paths hanging
    * off it and 3,000 leaves; a 40-cycle on the hub sits in the second half
    * of the ids, padded with isolated vertices to n = 6,602 so that two
    * partitions put the cycle in partition 1. The cycle plus the hub form
    * the 3-core, so the hub's coreness is 3.
    */
  def hubWithRemoteCycle: LocalGraph = {
    val paths = 150; val leaves = 3000; val cyc = 40
    val half = 1 + 2 * paths + leaves
    val n = 2 * half
    val pathEdges = (1 to paths).flatMap(b => Seq((0, b), (b, b + paths)))
    val leafEdges = (1 + 2 * paths until half).map(l => (0, l))
    val cycleEdges = (0 until cyc).flatMap(j => Seq((half + j, half + (j + 1) % cyc), (0, half + j)))
    fromEdgeSeq(n, pathEdges ++ leafEdges ++ cycleEdges)
  }
}
