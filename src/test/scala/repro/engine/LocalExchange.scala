package repro.engine

import repro.core.KCoreConfig
import repro.graph.LocalGraph

/** Runs every partition in the calling thread, in pid order: the peel loop
  * without Spark. The kernel mutates the states in place; nothing reads an
  * old state again, so no copy is needed. `last` holds the latest outputs.
  */
final class LocalExchange(parts: Array[PartitionGraph], cfg: KCoreConfig) extends Exchange {
  var states: Array[PartitionState] = _
  var last: Array[SubroundOut] = _

  def init(): Array[SubroundOut] = {
    val (st, outs) = parts.map(PartitionState.init(_, cfg)).unzip
    states = st
    outs
  }
  def step(in: SubroundIn): Array[SubroundOut] = { last = states.map(SubroundProcessor.process(_, in, cfg)); last }
  def gather(): Array[Int] = states.flatMap(_.core)
  def release(): Unit = ()
}

object LocalExchange {
  /** `PeelEngine.run` on `g` split into `nParts` partitions, plus the final attempt's exchange. */
  def run(g: LocalGraph, nParts: Int, cfg: KCoreConfig): (Array[Int], RunMetrics, LocalExchange) = {
    val parts = Csr.buildLocal(g, nParts)
    var ex: LocalExchange = null
    val (core, m) = PeelEngine.run(g.n, cfg, c => { ex = new LocalExchange(parts, c); ex })
    (core, m, ex)
  }
}
