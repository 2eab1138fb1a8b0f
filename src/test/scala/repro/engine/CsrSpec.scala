package repro.engine

import org.apache.spark.ShuffleDependency
import org.apache.spark.rdd.RDD
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import repro.{SparkSpec, TestGraphs}
import repro.graph.{GraphOps, LocalGraph}
import scala.collection.mutable.ArrayBuffer

class CsrSpec extends SparkSpec {

  private def sameCsr(dist: Array[PartitionGraph], local: Array[PartitionGraph]): Boolean =
    dist.map(p => (p.pid, p.lo, p.hi, p.indptr.toSeq, p.adj.toSeq)).toSeq ==
      local.map(p => (p.pid, p.lo, p.hi, p.indptr.toSeq, p.adj.toSeq)).toSeq

  /** Raw pairs over the lower two thirds of [0, n), so the top ids are
    * isolated, with self-loops (1 in 8), reversed copies (1 in 4) and
    * repeats (1 in 4).
    */
  private val rawGen: Gen[(Int, Array[Int], Array[Int])] =
    for (n <- Gen.oneOf(Gen.choose(1, 16), Gen.choose(17, 120)); m <- Gen.choose(0, 3 * n);
         seed <- Gen.choose(0L, 10000L)) yield {
      val rng = new java.util.Random(seed)
      val span = math.max(1, 2 * n / 3)
      val s, d = ArrayBuffer.empty[Int]
      for (_ <- 0 until m) {
        val u = rng.nextInt(span)
        val v = if (rng.nextInt(8) == 0) u else rng.nextInt(span)
        s += u; d += v
        if (rng.nextInt(4) == 0) { s += v; d += u }
        if (rng.nextInt(4) == 0) { s += u; d += v }
      }
      (n, s.toArray, d.toArray)
    }

  test("buildDistributed of symmetrize(raw) equals buildLocal of fromPairs (property)") {
    // The raw pairs hold duplicates, both directions of an edge, self-loops
    // and isolated vertices; some cases have fewer vertices than partitions.
    var dups, reversed, loops, isolated, fewerVertices = 0
    val prop = Prop.forAllNoShrink(rawGen, Gen.choose(1, 17)) { case ((n, s, d), nParts) =>
      val pairs = s.zip(d)
      if (pairs.length > pairs.distinct.length) dups += 1
      if (pairs.exists { case (u, v) => u != v && pairs.contains((v, u)) }) reversed += 1
      if (pairs.exists { case (u, v) => u == v }) loops += 1
      val local = Csr.buildLocal(LocalGraph.fromPairs(n, s, d), nParts)
      if (local.exists(p => (0 until p.nOwned).exists(p.degreeLocal(_) == 0))) isolated += 1
      if (n < nParts) fewerVertices += 1
      val raw = GraphOps.rawToDF(spark, s, d)
      val dist = Csr.buildDistributed(spark, GraphOps.symmetrize(raw), n, nParts).collect().sortBy(_.pid)
      sameCsr(dist, local) :| s"n $n, ${s.length} pairs, nParts $nParts"
    }
    val params = SCTest.Parameters.default.withMinSuccessfulTests(40).withInitialSeed(Seed(20260))
    val res = SCTest.check(params, prop)
    assert(res.passed, res.status.toString)
    assert(Seq(dups, reversed, loops, isolated, fewerVertices).forall(_ > 0),
      s"dups $dups, reversed $reversed, self-loops $loops, isolated $isolated, n < nParts $fewerVertices")
  }

  /** The shuffles in `rdd`'s lineage. */
  private def shuffles(rdd: RDD[_]): Seq[ShuffleDependency[_, _, _]] = rdd.dependencies.flatMap {
    case s: ShuffleDependency[_, _, _] => s +: shuffles(s.rdd)
    case dep => shuffles(dep.rdd)
  }

  test("buildDistributed of symmetrize(raw) shuffles once, from raw's partitions into nParts") {
    val rng = new java.util.Random(4)
    val n = 300
    val raw = GraphOps.rawToDF(spark, Array.fill(1500)(rng.nextInt(n)), Array.fill(1500)(rng.nextInt(n)))
    for (nParts <- Seq(3, 16)) {
      val base = Csr.buildDistributed(spark, GraphOps.symmetrize(raw), n, nParts)
      val sh = shuffles(base)
      assert(sh.length == 1, sh)
      assert(sh.head.rdd.getNumPartitions == raw.rdd.getNumPartitions)
      assert(base.getNumPartitions == nParts)
    }
  }

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
