package repro.engine

import repro.{SparkSpec, TestGraphs}
import repro.graph.GraphOps

class CsrSpec extends SparkSpec {

  test("ownerOf is the inverse of boundOf ranges") {
    for (n <- Seq(1, 7, 16, 100, 1001); p <- Seq(1, 3, 4, 16)) {
      (0 until n).foreach { v =>
        val owner = Csr.ownerOf(v, n, p)
        assert(v >= Csr.boundOf(owner, n, p) && v < Csr.boundOf(owner + 1, n, p),
          s"n=$n p=$p v=$v owner=$owner")
      }
    }
    // The vertices on either side of every border, where Long arithmetic matters.
    val n = Int.MaxValue
    for (p <- Seq(16, 17); b <- 1 until p) {
      val lo = Csr.boundOf(b, n, p)
      assert(Csr.ownerOf(lo - 1, n, p) == b - 1, s"n=$n p=$p v=${lo - 1}")
      assert(Csr.ownerOf(lo, n, p) == b, s"n=$n p=$p v=$lo")
    }
  }

  test("bounds partition the vertex range exactly") {
    for (n <- Seq(5, 64, 999); p <- Seq(2, 7, 16)) {
      assert(Csr.boundOf(0, n, p) == 0)
      assert(Csr.boundOf(p, n, p) == n)
      (0 until p).foreach(i => assert(Csr.boundOf(i, n, p) <= Csr.boundOf(i + 1, n, p)))
    }
  }

  test("buildLocal covers every vertex once with correct adjacency") {
    val g = TestGraphs.random(500, 3000, 1)
    val parts = Csr.buildLocal(g, 7)
    assert(parts.map(_.nOwned).sum == g.n)
    parts.foreach { p =>
      (0 until p.nOwned).foreach { i =>
        val v = p.lo + i
        val nbrs = (p.indptr(i) until p.indptr(i + 1)).map(p.adj)
        val expected = (g.indptr(v) until g.indptr(v + 1)).map(g.adj)
        assert(nbrs == expected, s"vertex $v")
      }
    }
  }

  test("buildDistributed equals buildLocal") {
    val g = TestGraphs.random(400, 2500, 2)
    val df = GraphOps.toDF(spark, g)
    val dist = Csr.buildDistributed(spark, df, g.n, 5).collect().sortBy(_.pid)
    val local = Csr.buildLocal(g, 5)
    assert(dist.length == local.length)
    dist.zip(local).foreach { case (d, l) =>
      assert(d.lo == l.lo && d.hi == l.hi)
      assert(d.indptr.toSeq == l.indptr.toSeq, s"pid ${d.pid}")
      assert(d.adj.toSeq == l.adj.toSeq, s"pid ${d.pid}")
    }
  }

  test("buildDistributed handles empty partitions (n < nParts)") {
    val g = TestGraphs.clique(3)
    val df = GraphOps.toDF(spark, g)
    val dist = Csr.buildDistributed(spark, df, g.n, 8).collect().sortBy(_.pid)
    assert(dist.map(_.nOwned).sum == 3)
    assert(dist.count(_.nOwned == 0) == 5)
  }

  test("partition graph degree matches global degree") {
    val g = TestGraphs.random(300, 2000, 3)
    val parts = Csr.buildLocal(g, 4)
    parts.foreach { p =>
      (0 until p.nOwned).foreach(i => assert(p.degreeLocal(i) == g.degree(p.lo + i)))
    }
  }
}
