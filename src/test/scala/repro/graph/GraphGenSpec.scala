package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.seq.SeqKCore

class GraphGenSpec extends AnyFunSuite {
  import GraphGen._

  private def gen(f: EdgeList => Unit, n: Int): LocalGraph = {
    val el = new EdgeList
    f(el)
    LocalGraph.fromPairs(n, el.srcs, el.dsts)
  }

  private def maxDegree(g: LocalGraph): Int = (0 until g.n).map(g.degree).max

  private def avgDegree(g: LocalGraph): Double = g.adj.length.toDouble / g.n

  // ---- canonicalization ----------------------------------------------------

  test("fromPairs symmetrizes") {
    val g = TestGraphs.fromEdgeSeq(3, Seq((0, 1), (1, 2)))
    assert(g.adj.length == 4)
    assert(g.degree(1) == 2)
  }

  test("fromPairs dedups duplicate and reversed edges") {
    val g = TestGraphs.fromEdgeSeq(2, Seq((0, 1), (1, 0), (0, 1)))
    assert(g.m == 1)
  }

  test("fromPairs drops self-loops") {
    val g = TestGraphs.fromEdgeSeq(2, Seq((0, 0), (1, 1), (0, 1)))
    assert(g.m == 1)
  }

  test("fromPairs rejects out-of-range vertices") {
    intercept[IllegalArgumentException](TestGraphs.fromEdgeSeq(2, Seq((0, 5))))
  }

  test("adjacency is sorted per vertex") {
    val g = repro.TestGraphs.random(50, 300, 3)
    (0 until g.n).foreach { v =>
      val nbrs = (g.indptr(v) until g.indptr(v + 1)).map(g.adj)
      assert(nbrs == nbrs.sorted)
    }
  }

  // ---- BA ------------------------------------------------------------------

  test("BA graph is deterministic in the seed") {
    val a = gen(ba(_, 500, 5, 1), 500)
    val b = gen(ba(_, 500, 5, 1), 500)
    assert(a.adj.toSeq == b.adj.toSeq && a.indptr.toSeq == b.indptr.toSeq)
  }

  test("BA graph degeneracy equals m0") {
    val g = gen(ba(_, 800, 5, 2), 800)
    assert(SeqKCore.bz(g).max == 5)
  }

  test("BA graph has degree skew") {
    val g = gen(ba(_, 2000, 4, 3), 2000)
    assert(maxDegree(g) > 10 * avgDegree(g))
  }

  test("BA graph edge count ≈ n*m0") {
    val g = gen(ba(_, 1000, 6, 4), 1000)
    assert(g.m > 1000L * 6 * 8 / 10 && g.m <= 1000L * 6 + 7)
  }

  // ---- planted core --------------------------------------------------------

  test("erBlock raises kmax to ≈ c*p") {
    val el = new EdgeList
    ba(el, 2000, 4, 5)
    erBlock(el, 100, 0.5, 6, 0)
    val g = LocalGraph.fromPairs(2000, el.srcs, el.dsts)
    val kmax = SeqKCore.bz(g).max
    assert(kmax > 25 && kmax < 75, s"kmax=$kmax")
  }

  // ---- hubs ----------------------------------------------------------------

  test("hubs create very high degree vertices") {
    val el = new EdgeList
    ba(el, 3000, 4, 7)
    hubs(el, 3000, 3, 0.2, 8)
    val g = LocalGraph.fromPairs(3000, el.srcs, el.dsts)
    assert(maxDegree(g) > 400)
  }

  // ---- grids ---------------------------------------------------------------

  test("pure grid has kmax 2 and expected edge count") {
    val g = gen(grid2d(_, 30, 40, 0.0, 0), 1200)
    assert(g.m == 29L * 40 + 30L * 39)
    assert(SeqKCore.bz(g).max == 2)
  }

  test("grid with diagonals has kmax 3 or 4 (road regime)") {
    val g = gen(grid2d(_, 60, 60, 0.1, 1), 3600)
    val kmax = SeqKCore.bz(g).max
    assert(kmax >= 3 && kmax <= 4, s"kmax=$kmax")
  }

  test("cube has kmax 3") {
    val g = gen(cube3d(_, 8, 8, 8), 512)
    assert(SeqKCore.bz(g).max == 3)
    assert(g.m == 3L * 7 * 8 * 8)
  }

  // ---- kNN -----------------------------------------------------------------

  test("kNN graph: out-degree k before symmetrization, small kmax after") {
    val el = new EdgeList
    knn(el, 500, 5, 2, 1)
    assert(el.size == 500 * 5)
    val g = LocalGraph.fromPairs(500, el.srcs, el.dsts)
    assert(g.n == 500)
    val kmax = SeqKCore.bz(g).max
    assert(kmax >= 2 && kmax <= 6, s"kmax=$kmax")
  }

  test("kNN neighbors are actually the nearest (spot check vs brute force)") {
    val el = new EdgeList
    val n = 200; val k = 3
    knn(el, n, k, 2, 9)
    // Regenerate the same points.
    val rng = new java.util.Random(9)
    val pts = Array.fill(n, 2)(rng.nextDouble())
    val srcs = el.srcs; val dsts = el.dsts
    def d2(a: Int, b: Int) = {
      val dx = pts(a)(0) - pts(b)(0); val dy = pts(a)(1) - pts(b)(1)
      dx * dx + dy * dy
    }
    (0 until n).foreach { i =>
      val mine = (0 until el.size).filter(e => srcs(e) == i).map(dsts)
      val brute = (0 until n).filter(_ != i).sortBy(d2(i, _)).take(k)
      assert(mine.map(d2(i, _)).max <= brute.map(d2(i, _)).max + 1e-12, s"point $i")
    }
  }

  test("kNN 3-D works") {
    val el = new EdgeList
    knn(el, 300, 5, 3, 2)
    val g = LocalGraph.fromPairs(300, el.srcs, el.dsts)
    assert(g.n == 300 && g.m >= 300L * 5 / 2)
  }

  // ---- caterpillar / HCNS --------------------------------------------------

  test("caterpillar: kmax 2, high rho at k=1") {
    val el = new EdgeList
    val used = caterpillar(el, 10, 8, 30)
    val g = LocalGraph.fromPairs(used, el.srcs, el.dsts)
    val r = SeqKCore.framework(g)
    assert(r.kmax == 2)
    assert(r.rho >= 30, s"rho=${r.rho}")
  }

  test("HCNS: coreness profile is exactly the design") {
    val el = new EdgeList
    val used = hcns(el, 30, 100)
    val g = LocalGraph.fromPairs(used, el.srcs, el.dsts)
    val core = SeqKCore.bz(g)
    assert(core.max == 30)
    (3 until 30).foreach(i => assert(core.count(_ == i) == 1, s"coreness $i"))
    assert(core.count(_ == 30) == 31)
  }

  test("HCNS rho scales with kmax") {
    val el = new EdgeList
    val used = hcns(el, 40, 10)
    val g = LocalGraph.fromPairs(used, el.srcs, el.dsts)
    assert(SeqKCore.framework(g).rho >= 40)
  }

  // ---- suite ---------------------------------------------------------------

  test("all 25 suite graphs build, are non-trivial, and are deterministic") {
    GraphSuite.all.foreach { spec =>
      val g = spec.build()
      assert(g.n > 1000, s"${spec.name} too small")
      assert(g.m > g.n / 2, s"${spec.name} too sparse")
      val g2 = spec.build()
      assert(g.adj.length == g2.adj.length, s"${spec.name} nondeterministic")
    }
  }

  test("suite has 25 graphs with unique names") {
    assert(GraphSuite.all.size == 25)
    assert(GraphSuite.all.map(_.name).distinct.size == 25)
  }

  test("suite density classes match the paper's") {
    val dense = GraphSuite.all.filter(_.dense).map(_.name).toSet
    assert(dense == Set("LJ", "OK", "WB", "TW", "FS", "EH", "SD", "CW", "HL14", "HL12", "HCNS", "HPL"))
  }
}
