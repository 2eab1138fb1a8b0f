package repro.engine

import repro.core.{Offline, Online}
import scala.collection.mutable.ArrayBuilder

/** Executes one subround for one partition under the state's own config.
  * Mutates the state in place and returns the partition's `SubroundOut`;
  * exchanges reach it only through [[PartitionState.advance]], which runs it
  * at most once per state and subround.
  *
  * Step order matters for the two-phase sampling exit protocol — see
  * DESIGN.md §5:
  *   0. apply every partition's sampler-directory changes, in order,
  *   1. apply every partition's newly peeled vertices to the bitmap
  *      (0 and 1 touch disjoint state, so they share one pass per output),
  *   2. apply the explicit decrements to owned targets (crossings join
  *      this frontier),
  *   3. apply the sample hits to owned targets (may schedule exits),
  *   4. on round start: extract the frontier from the bucket strategy and
  *      validate every sampled vertex,
  *   5. perform the exact recounts scheduled in the previous subround,
  *   6. peel the frontier (with VGC chains in Online mode),
  *   7. vote to halt: a partition that ends quiescent reports the least
  *      key it could peel at in a later round ([[PartitionState.leastKey]]),
  *      any other −1; the round ends when no partition reports −1.
  */
object SubroundProcessor {

  final class IntQueue(initial: Int) {
    private var arr = new Array[Int](math.max(4, initial))
    var size = 0
    def add(v: Int): Unit = {
      if (size == arr.length) arr = java.util.Arrays.copyOf(arr, arr.length * 2)
      arr(size) = v; size += 1
    }
    def apply(i: Int): Int = arr(i)
    def clear(): Unit = size = 0
  }

  def process(st: PartitionState, in: SubroundIn): SubroundOut = {
    val cfg = st.cfg
    val g = st.g
    val pid = g.pid
    val k = in.k
    val sp = cfg.sampling.orNull
    val mu = if (sp == null) Int.MaxValue else sp.mu(g.n)
    val rng = new java.util.Random(cfg.seed ^ (in.subroundIndex * 1000003L) ^ (pid * 7919L))
    val structOpsBefore = st.strategy.ops

    // --- counters -----------------------------------------------------------
    var work = 0L
    var edgeTraversals = 0L
    var decMsgs = 0L
    var hitMsgs = 0L
    var localDecs = 0L
    var histogramOps = 0L
    var inboundApplied = 0L
    var maxInbound = 0
    var maxChainOps = 0L
    var frontierProcessed = 0
    var error = false

    // --- outputs ------------------------------------------------------------
    val decs = new ArrayBuilder.ofInt
    val hits = new ArrayBuilder.ofInt
    val histo = if (cfg.peel == Offline) new ArrayBuilder.ofInt else null // targets, one per edge
    val newlyPeeled = new ArrayBuilder.ofInt
    val dirV = new ArrayBuilder.ofInt
    val dirRate = new ArrayBuilder.ofDouble
    val pendingNext = new ArrayBuilder.ofInt
    val nextFrontier = new ArrayBuilder.ofInt
    val newSampled = new ArrayBuilder.ofInt

    // Roots to peel this subround: carried-over frontier + additions below.
    val roots = new IntQueue(st.frontier.length + 8)
    var i = 0
    while (i < st.frontier.length) { roots.add(st.frontier(i)); i += 1 }

    @inline def beginExit(v: Int): Unit = {
      st.mode(st.li(v)) = 2
      dirV += v; dirRate += 0.0
      pendingNext += v
    }

    // Alive owned vertices whose key a message lowered (step 7 reads them).
    val touched = new IntQueue(8)

    // --- steps 0–1: sampler-directory changes, peeled-bitmap delta ----------
    // Directory changes apply in the order they were made: a vertex that
    // re-enters sample mode and exits again in one subround ends up absent.
    in.outs.foreach { o =>
      var x = 0
      while (x < o.dirV.length) {
        val v = Integer.valueOf(o.dirV(x))
        if (o.dirRate(x) == 0.0) st.dir.remove(v) else st.dir.put(v, java.lang.Double.valueOf(o.dirRate(x)))
        x += 1
      }
      x = 0
      while (x < o.newlyPeeled.length) { st.setPeeledBit(o.newlyPeeled(x)); x += 1 }
    }

    // --- step 2: incoming explicit decrements -------------------------------
    val inb = new Array[Int](g.nOwned) // inbound messages per local id
    // Tallies c messages to owned vertex t; returns its local id.
    def inbound(t: Int, c: Int): Int = {
      inboundApplied += c
      work += c
      val j = st.li(t)
      inb(j) += c
      if (inb(j) > maxInbound) maxInbound = inb(j)
      j
    }
    in.outs.foreach { o =>
      var x = 0
      while (x < o.decs.length) {
        val t = o.decs(x)
        if (g.owns(t)) {
          val c = if (o.decCounts != null) o.decCounts(x) else 1
          val j = inbound(t, c)
          // Mode 2 (recount pending) skips it: the bitmap covers these peels.
          // Mode 1 (just entered sample mode) applies it, so the degree stays
          // a conservative upper bound, but does not peel on it.
          if (st.core(j) == -1 && st.mode(j) != 2) {
            st.deg(j) -= c
            st.strategy.onDecrease(t, st.deg(j))
            if (st.mode(j) == 0 && st.deg(j) <= k) { st.core(j) = k; roots.add(t) }
            else touched.add(t)
          }
        }
        x += 1
      }
    }

    // --- step 3: incoming sample hits ---------------------------------------
    in.outs.foreach { o =>
      var x = 0
      while (x < o.hits.length) {
        val t = o.hits(x)
        if (g.owns(t)) {
          val j = inbound(t, 1)
          if (st.core(j) == -1 && st.mode(j) == 1) {
            st.cnt(j) += 1
            touched.add(t)
            if (st.cnt(j) >= mu) beginExit(t)
          }
        }
        x += 1
      }
    }

    // --- step 4: round start — frontier extraction + validation -------------
    if (in.roundStart) {
      val alive = (v: Int) => st.core(st.li(v)) == -1
      val selectable = (v: Int) => st.mode(st.li(v)) == 0
      val extracted = st.strategy.extract(k, v => st.deg(st.li(v)), alive, selectable)
      i = 0
      while (i < extracted.length) {
        val v = extracted(i)
        val j = st.li(v)
        if (st.core(j) == -1) { st.core(j) = k; roots.add(v) }
        i += 1
      }
      // Validate all sampled owned vertices (Alg. 4 lines 5–6).
      if (sp != null && st.sampledOwned.length > 0) {
        val stillSampled = new ArrayBuilder.ofInt
        i = 0
        while (i < st.sampledOwned.length) {
          val v = st.sampledOwned(i)
          val j = st.li(v)
          work += 1
          if (st.core(j) == -1 && st.mode(j) == 1) {
            if (!sp.validate(st.deg(j), k, st.cnt(j), st.rateArr(j))) beginExit(v)
            else stillSampled += v
          }
          i += 1
        }
        st.sampledOwned = stillSampled.result()
      }
    }

    // --- step 5: exact recounts scheduled last subround ---------------------
    val toRecount = st.pendingRecount
    i = 0
    while (i < toRecount.length) {
      val v = toRecount(i)
      val j = st.li(v)
      if (st.core(j) == -1) {
        var trueDeg = 0
        g.foreachNeighborLocal(j) { u =>
          work += 1
          if (!st.isPeeledBit(u)) trueDeg += 1
        }
        st.deg(j) = trueDeg
        st.cnt(j) = 0
        st.strategy.onDecrease(v, trueDeg)
        if (trueDeg < k) {
          // The vertex's degree fell below k while sampled — a missed peel
          // (paper §4.1.4). Flag for restart; peel now as a best effort.
          error = true
          st.core(j) = k; st.mode(j) = 0; roots.add(v)
        } else if (trueDeg == k) {
          st.core(j) = k; st.mode(j) = 0; roots.add(v)
        } else if (st.enterSampleMode(v, k, dirV, dirRate)) {
          newSampled += v
        } else {
          st.mode(j) = 0
        }
      }
      i += 1
    }
    st.pendingRecount = Array.emptyIntArray

    // --- step 6: peel the frontier ------------------------------------------
    val online = cfg.peel == Online
    val chain = new IntQueue(16)
    var r = 0
    while (r < roots.size) {
      val root = roots(r)
      r += 1
      if (!st.isPeeledBit(root)) {
        chain.clear()
        chain.add(root)
        var chainOps = 0L
        var qi = 0
        while (qi < chain.size) {
          val v = chain(qi)
          qi += 1
          val j = st.li(v)
          st.setPeeledBit(v)
          newlyPeeled += v
          st.peeledOwnedCount += 1
          frontierProcessed += 1
          work += 1
          chainOps += 1 + st.g.degreeLocal(j)
          g.foreachNeighborLocal(j) { u =>
            edgeTraversals += 1
            work += 1
            if (!online) {
              histo += u
              histogramOps += 1
              work += 1
            } else if (g.owns(u)) {
              val ju = st.li(u)
              if (st.core(ju) == -1) {
                if (st.mode(ju) == 1) {
                  if (rng.nextDouble() < st.rateArr(ju)) {
                    st.cnt(ju) += 1
                    hitMsgs += 1
                    if (st.cnt(ju) >= mu) beginExit(u)
                  }
                } else if (st.mode(ju) == 2) {
                  // exiting: the recount will see v's peeled bit (set above)
                } else {
                  st.deg(ju) -= 1
                  localDecs += 1
                  st.strategy.onDecrease(u, st.deg(ju))
                  if (st.deg(ju) == k) {
                    st.core(ju) = k
                    if (cfg.vgcQueue > 0 && chain.size < cfg.vgcQueue) chain.add(u)
                    else nextFrontier += u
                  }
                }
              }
            } else {
              val rt = st.dir.get(Integer.valueOf(u))
              if (rt != null) {
                if (rng.nextDouble() < rt.doubleValue()) {
                  hits += u
                  hitMsgs += 1
                }
              } else {
                decs += u
                decMsgs += 1
              }
            }
          }
        }
        if (chainOps > maxChainOps) maxChainOps = chainOps
      }
    }

    // Offline mode: build the histogram by sorting the targets and counting
    // runs into (target, count) messages — including self-addressed ones
    // (batch-synchronous application next subround, Alg. 2).
    val decCounts = if (online) null else new ArrayBuilder.ofInt
    if (!online) {
      val targets = histo.result()
      java.util.Arrays.sort(targets)
      var a = 0
      while (a < targets.length) {
        val t = targets(a)
        var b = a + 1
        while (b < targets.length && targets(b) == t) b += 1
        decs += t
        decCounts += b - a
        decMsgs += 1
        work += 1
        a = b
      }
    }

    st.frontier = nextFrontier.result()
    st.pendingRecount = pendingNext.result()
    val ns = newSampled.result()
    if (ns.nonEmpty) st.sampledOwned = st.sampledOwned ++ ns
    val decsOut = decs.result()
    val hitsOut = hits.result()

    // --- step 7: vote to halt, with the least key of a later round ----------
    // A busy partition reports −1; the round ends when none does. If this
    // one was quiescent in the last subround of this round too, and since
    // then messages only lowered keys (no vertex peeled, recounted or left
    // the structure), the least key is the last one or a touched vertex's;
    // a last key of at most k + 1 (ScanAll's 0 among them) skips no round,
    // so it stands.
    val prevKey = st.lastOut.counters.leastKey
    val leastKey =
      if (st.frontier.nonEmpty || st.pendingRecount.nonEmpty || decsOut.nonEmpty || hitsOut.nonEmpty) -1
      else if (prevKey >= 0 && !in.roundStart && toRecount.isEmpty && roots.size == 0) {
        var least = prevKey
        if (prevKey > k + 1) {
          work += touched.size
          i = 0
          while (i < touched.size) { least = math.min(least, st.keyOf(touched(i), k)); i += 1 }
        }
        least
      } else {
        work += st.sampledOwned.length
        st.leastKey(k)
      }

    val structOps = st.strategy.ops - structOpsBefore
    work += structOps

    SubroundOut(
      pid,
      decsOut,
      if (decCounts == null) null else decCounts.result(),
      hitsOut,
      newlyPeeled.result(),
      dirV.result(),
      dirRate.result(),
      SubCounters(work, edgeTraversals, decMsgs, hitMsgs, localDecs, structOps,
        histogramOps, inboundApplied, maxInbound, maxChainOps, frontierProcessed,
        st.peeledOwnedCount, st.sampledOwned.length, leastKey),
      error)
  }
}
