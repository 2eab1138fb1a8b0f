package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core._
import repro.sampling.SamplingParams

/** Unit tests of SubroundProcessor on handcrafted partition states — no
  * SparkSession involved; this is the engine's per-partition kernel.
  */
class ProcessorSpec extends AnyFunSuite {

  // Path 0-1-2-3-4-5-6-7, split into two partitions of 4 vertices each.
  private val path = TestGraphs.path(8)
  private def mkState(cfg: KCoreConfig, pid: Int): PartitionState = {
    val parts = Csr.buildLocal(path, 2)
    new PartitionState(parts(pid), cfg)
  }

  /** One partition's output carrying the given messages and changes. */
  private def sent(
      decs: Array[Int] = Array.emptyIntArray,
      hits: Array[Int] = Array.emptyIntArray,
      peeled: Array[Int] = Array.emptyIntArray,
      dirV: Array[Int] = Array.emptyIntArray,
      dirRate: Array[Double] = Array.emptyDoubleArray): SubroundOut =
    SubroundOut(0, decs, null, hits, peeled, dirV, dirRate, SubCounters.Zero, error = false)

  private def emptyIn(k: Int, roundStart: Boolean, sub: Int = 1): SubroundIn =
    SubroundIn(k, roundStart, sub, Array.empty)

  private def inOf(k: Int, roundStart: Boolean, outs: SubroundOut*): SubroundIn =
    SubroundIn(k, roundStart, 1, outs.toArray)

  test("init: induced degrees equal input degrees; nothing peeled") {
    val st = mkState(KCoreConfig.plain, 0)
    assert(st.deg.toSeq == Seq(1, 2, 2, 2))
    assert(st.core.forall(_ == -1))
    assert(st.peeledOwnedCount == 0)
  }

  test("round-start extraction peels the degree-k frontier and emits remote decrements") {
    val st = mkState(KCoreConfig.plain, 0)
    // k=1: vertex 0 (degree 1) is the frontier; peeling it decrements owned 1.
    val out = SubroundProcessor.process(st, emptyIn(1, roundStart = true))
    assert(out.newlyPeeled.toSeq == Seq(0))
    assert(st.core(0) == 1)
    assert(st.deg(1) == 1)
    // Vertex 1 crossed to k → next frontier (no VGC in plain).
    assert(st.frontier.toSeq == Seq(1))
    assert(out.counters.frontierProcessed == 1)
  }

  test("VGC chases the whole owned chain in one subround") {
    val cfg = KCoreConfig.plain.copy(vgcQueue = 128)
    val st = mkState(cfg, 0)
    val out = SubroundProcessor.process(st, emptyIn(1, roundStart = true))
    // 0 → 1 → 2 → 3 all peel locally; the decrement to remote 4 is a message.
    assert(out.newlyPeeled.toSeq == Seq(0, 1, 2, 3))
    assert(st.frontier.isEmpty)
    assert(out.decs.toSeq == Seq(4))
    assert(out.counters.maxChainOps >= 4)
  }

  test("VGC queue capacity caps the chain") {
    val cfg = KCoreConfig.plain.copy(vgcQueue = 2)
    val st = mkState(cfg, 0)
    val out = SubroundProcessor.process(st, emptyIn(1, roundStart = true))
    assert(out.newlyPeeled.toSeq == Seq(0, 1))
    assert(st.frontier.toSeq == Seq(2)) // overflow goes to the next frontier
  }

  test("incoming explicit decrement crossing joins this subround's frontier") {
    val st = mkState(KCoreConfig.plain, 1) // owns 4..7, degrees (2,2,2,1)
    // Messages to partition 0's vertices ride along and must be skipped.
    val in = inOf(1, roundStart = false, sent(decs = Array(1, 2), hits = Array(3)), sent(decs = Array(4)))
    val out = SubroundProcessor.process(st, in)
    // deg(4): 2 → 1 == k → assigned and peeled this subround, decrementing 5.
    assert(st.core(st.li(4)) == 1)
    assert(out.newlyPeeled.toSeq == Seq(4))
    assert(st.deg(st.li(5)) == 1)
  }

  test("decrements to already-assigned vertices are ignored") {
    val st = mkState(KCoreConfig.plain, 1)
    st.core(st.li(4)) = 1 // pretend assigned
    val in = inOf(1, roundStart = false, sent(decs = Array(4, 4)))
    val before = st.deg(st.li(4))
    SubroundProcessor.process(st, in)
    assert(st.deg(st.li(4)) == before)
  }

  test("offline peel emits combined (target,count) messages including self") {
    val cfg = KCoreConfig.julienne
    val st = mkState(cfg, 0)
    val out = SubroundProcessor.process(st, emptyIn(1, roundStart = true))
    // Peeling 0 offline: the single decrement to 1 becomes a self-addressed
    // histogram message, not an immediate application.
    assert(out.newlyPeeled.toSeq == Seq(0))
    assert(st.deg(1) == 2)
    assert(out.decs.toSeq == Seq(1))
    assert(out.decCounts.toSeq == Seq(1))
    assert(st.frontier.isEmpty)
  }

  test("offline histogram combines duplicate targets") {
    val cfg = KCoreConfig.julienne
    val st = mkState(cfg, 0)
    // Force both 0 and 2 into the frontier at k=2 artificially: set degrees.
    st.deg(0) = 2; st.deg(2) = 2
    st.core(0) = 2; st.core(2) = 2
    st.frontier = Array(0, 2)
    val out = SubroundProcessor.process(st, emptyIn(2, roundStart = false))
    // Both 0 and 2 decrement vertex 1 → one message (1, 2).
    val idx = out.decs.indexOf(1)
    assert(idx >= 0 && out.decCounts(idx) == 2)
  }

  test("sample hits to a non-sampled vertex are discarded") {
    val st = mkState(KCoreConfig.plain, 1)
    val in = inOf(1, roundStart = false, sent(hits = Array(5, 5)))
    SubroundProcessor.process(st, in)
    assert(st.deg(st.li(5)) == 2)
    assert(st.cnt(st.li(5)) == 0)
  }

  test("sampler directory deltas update the replica") {
    val st = mkState(KCoreConfig.plain, 0)
    val in = inOf(0, roundStart = true, sent(dirV = Array(6), dirRate = Array(0.25)))
    SubroundProcessor.process(st, in)
    assert(st.dir.get(6) == 0.25)
    val in2 = inOf(0, roundStart = false, sent(dirV = Array(6), dirRate = Array(0.0)))
    SubroundProcessor.process(st, in2)
    assert(!st.dir.containsKey(6))

    // Hub 0 of a 30-leaf star re-enters sample mode in its recount (rate 1)
    // and its 14 owned leaves, peeled in the same subround, hit it μ = 8
    // times: it emits (0, rate) and then (0, 0), and a replica that applies
    // them in that order drops the hub.
    val star = TestGraphs.star(31)
    val cfg = KCoreConfig.plain.copy(sampling = Some(SamplingParams(threshold = 16, r = 0.9, c = -1.95)))
    val Array(hubSt, replica) = Csr.buildLocal(star, 2).map(new PartitionState(_, cfg))
    SubroundProcessor.process(replica, SubroundIn(0, roundStart = true, 0, Array(hubSt.lastOut, replica.lastOut)))
    assert(replica.dir.get(0) == 1.0)
    hubSt.mode(0) = 2
    hubSt.pendingRecount = Array(0)
    val hubOut = SubroundProcessor.process(hubSt, emptyIn(1, roundStart = true))
    assert(hubOut.dirV.toSeq == Seq(0, 0) && hubOut.dirRate.toSeq == Seq(1.0, 0.0))
    SubroundProcessor.process(replica, inOf(1, roundStart = false, hubOut))
    assert(!replica.dir.containsKey(0))
  }

  test("senders consult the directory: sampled remote targets get hits, not decs") {
    // No local sampling — only the replicated directory entry for remote 4.
    val cfg = KCoreConfig.plain
    val st = mkState(cfg, 0)
    // Mark remote vertex 4 as sampled with rate 1.0 → every touch is a hit.
    val in = inOf(1, roundStart = true, sent(dirV = Array(4), dirRate = Array(1.0)))
    val out = SubroundProcessor.process(st, in)
    // Chain disabled (vgc 0): subround peels 0 only; no message to 4 yet.
    assert(out.hits.isEmpty && out.decs.isEmpty)
    // Advance: peel 1,2,3 over subsequent subrounds; 3's neighbor 4 is remote.
    var sub = 2
    var hits = Seq.empty[Int]
    var decs = Seq.empty[Int]
    while (st.frontier.nonEmpty) {
      val o = SubroundProcessor.process(st, emptyIn(1, roundStart = false, sub))
      hits ++= o.hits.toSeq
      decs ++= o.decs.toSeq
      sub += 1
    }
    assert(hits == Seq(4))
    assert(decs.isEmpty)
  }

  test("recount: pending vertex recomputes exact degree from the peeled bitmap") {
    val st = mkState(KCoreConfig.ours, 1) // owns 4..7
    val j5 = st.li(5)
    st.mode(j5) = 2
    st.pendingRecount = Array(5)
    st.deg(j5) = 99 // stale estimate
    // Neighbor 4 was peeled remotely (bit arrives in the delta); k=0 keeps
    // the vertex above the frontier so only the recount happens.
    val in = inOf(0, roundStart = false, sent(peeled = Array(4)))
    SubroundProcessor.process(st, in)
    assert(st.deg(j5) == 1) // only neighbor 6 still active
    assert(st.mode(j5) == 0)
    assert(st.core(j5) == -1)
  }

  test("recount below k flags the Las-Vegas error") {
    val st = mkState(KCoreConfig.ours, 1)
    val j7 = st.li(7) // degree 1 (neighbor 6)
    st.mode(j7) = 2
    st.pendingRecount = Array(7)
    val in = emptyIn(3, roundStart = false) // k=3 > true degree 1
    val out = SubroundProcessor.process(st, in)
    assert(out.error)
  }

  test("recount landing exactly on k peels the vertex in the same subround") {
    val st = mkState(KCoreConfig.ours, 1)
    val j7 = st.li(7)
    st.mode(j7) = 2
    st.pendingRecount = Array(7)
    val out = SubroundProcessor.process(st, emptyIn(1, roundStart = false))
    assert(!out.error)
    assert(st.core(j7) == 1)
    assert(out.newlyPeeled.contains(7))
  }

  test("peeled-bitmap delta is applied before anything else") {
    val st = mkState(KCoreConfig.plain, 1)
    val in = inOf(0, roundStart = false, sent(peeled = Array(0, 1, 2)))
    SubroundProcessor.process(st, in)
    assert(st.isPeeledBit(1) && st.isPeeledBit(2) && !st.isPeeledBit(3))
  }
}
