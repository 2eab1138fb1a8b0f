package repro.seq

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.TestGraphs

class SeqKCoreSpec extends AnyFunSuite {

  private def checkProp(prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(60), prop)
    assert(res.passed, res.status.toString)
  }

  test("BZ on the Fig. 1 example") {
    assert(SeqKCore.bz(TestGraphs.figure1).toSeq == TestGraphs.figure1Coreness.toSeq)
  }

  test("naive on the Fig. 1 example") {
    assert(SeqKCore.naive(TestGraphs.figure1).toSeq == TestGraphs.figure1Coreness.toSeq)
  }

  test("framework on the Fig. 1 example") {
    assert(SeqKCore.framework(TestGraphs.figure1).core.toSeq == TestGraphs.figure1Coreness.toSeq)
  }

  test("clique K8: every vertex has coreness 7") {
    assert(SeqKCore.bz(TestGraphs.clique(8)).toSeq == Seq.fill(8)(7))
  }

  test("cycle C10: every vertex has coreness 2") {
    assert(SeqKCore.bz(TestGraphs.cycle(10)).toSeq == Seq.fill(10)(2))
  }

  test("path P10: coreness 1 everywhere") {
    assert(SeqKCore.bz(TestGraphs.path(10)).toSeq == Seq.fill(10)(1))
  }

  test("star: center and leaves all have coreness 1") {
    assert(SeqKCore.bz(TestGraphs.star(12)).toSeq == Seq.fill(12)(1))
  }

  test("single vertex has coreness 0") {
    assert(SeqKCore.bz(TestGraphs.fromEdgeSeq(1, Seq.empty)).toSeq == Seq(0))
  }

  test("two isolated vertices have coreness 0") {
    assert(SeqKCore.bz(TestGraphs.fromEdgeSeq(2, Seq.empty)).toSeq == Seq(0, 0))
  }

  test("grid 10x10 has kmax 2") {
    assert(SeqKCore.bz(TestGraphs.grid(10, 10)).max == 2)
  }

  test("HCNS(kmax=20): exactly one vertex of each coreness 1..19") {
    val core = SeqKCore.bz(TestGraphs.smallHcns(20, 50))
    // coreness 2 additionally contains the padding ring — checked below.
    (1 until 20).filter(_ != 2).foreach { i => assert(core.count(_ == i) == 1, s"coreness $i") }
    assert(core.count(_ == 20) == 21) // the clique
    assert(core.count(_ == 2) == 1 + 50) // chain vertex + padding ring
  }

  test("caterpillar mesh has kmax 2") {
    assert(SeqKCore.bz(TestGraphs.smallCaterpillar).max == 2)
  }

  test("BZ == naive on random graphs (property)") {
    checkProp(Prop.forAll(Gen.choose(1, 60), Gen.choose(0, 300), Gen.choose(0L, 10000L)) {
      (n: Int, m: Int, seed: Long) =>
        val g = TestGraphs.random(n, m, seed)
        SeqKCore.bz(g).toSeq == SeqKCore.naive(g).toSeq
    })
  }

  test("framework == BZ on random graphs (property)") {
    checkProp(Prop.forAll(Gen.choose(1, 60), Gen.choose(0, 300), Gen.choose(0L, 10000L)) {
      (n: Int, m: Int, seed: Long) =>
        val g = TestGraphs.random(n, m, seed)
        SeqKCore.framework(g).core.toSeq == SeqKCore.bz(g).toSeq
    })
  }

  test("framework kmax matches BZ max") {
    val g = TestGraphs.random(200, 1500, 7)
    val r = SeqKCore.framework(g)
    assert(r.kmax == SeqKCore.bz(g).max)
  }

  test("framework rounds = kmax + 1") {
    val g = TestGraphs.random(200, 1500, 8)
    val r = SeqKCore.framework(g)
    assert(r.rounds == r.kmax + 1)
  }

  test("rho for a path: one subround per vertex layer at k=1") {
    // P20 peels from both ends: 10 subrounds at k=1, plus the k=0 round has none.
    val r = SeqKCore.framework(TestGraphs.path(20))
    assert(r.rho == 10)
  }

  test("rho for a clique is 1") {
    assert(SeqKCore.framework(TestGraphs.clique(10)).rho == 1)
  }

  test("rho for the grid is O(side)") {
    val r = SeqKCore.framework(TestGraphs.grid(20, 20))
    assert(r.rho >= 10 && r.rho <= 60, s"rho=${r.rho}")
  }

  test("coreness is bounded by degree") {
    val g = TestGraphs.random(100, 800, 9)
    val core = SeqKCore.bz(g)
    (0 until g.n).foreach(v => assert(core(v) <= g.degree(v)))
  }

  test("k-core property: each vertex has >= core(v) neighbors with core >= core(v)") {
    val g = TestGraphs.random(150, 1000, 10)
    val core = SeqKCore.bz(g)
    (0 until g.n).foreach { v =>
      var cnt = 0
      g.foreachNeighbor(v)(u => if (core(u) >= core(v)) cnt += 1)
      assert(cnt >= core(v), s"vertex $v")
    }
  }

  test("maxKCoreVertices(k) equals {v : core(v) >= k}") {
    val g = TestGraphs.random(150, 1200, 11)
    val core = SeqKCore.bz(g)
    (0 to core.max + 1).foreach { k =>
      val expected = (0 until g.n).filter(core(_) >= k)
      assert(SeqKCore.maxKCoreVertices(g, k).toSeq == expected)
    }
  }

  test("maxKCoreVertices on clique") {
    val g = TestGraphs.clique(6)
    assert(SeqKCore.maxKCoreVertices(g, 5).length == 6)
    assert(SeqKCore.maxKCoreVertices(g, 6).isEmpty)
  }

  test("empty-ish graph: all coreness zero") {
    val g = TestGraphs.fromEdgeSeq(5, Seq.empty)
    assert(SeqKCore.bz(g).forall(_ == 0))
    assert(SeqKCore.framework(g).rho >= 1)
  }

  test("self-loops are dropped by canonicalization") {
    val g = TestGraphs.fromEdgeSeq(3, Seq((0, 0), (0, 1), (1, 2)))
    assert(g.m == 2)
    assert(SeqKCore.bz(g).toSeq == Seq(1, 1, 1))
  }
}
