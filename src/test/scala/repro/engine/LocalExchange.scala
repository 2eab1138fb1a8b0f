package repro.engine

import repro.core.KCoreConfig
import repro.graph.LocalGraph

/** Runs every partition in the calling thread, in pid order: the peel loop
  * without Spark. It steps the states through [[PartitionState.advance]],
  * the same guarded path as the Spark exchange.
  */
final class LocalExchange(parts: Array[PartitionGraph], cfg: KCoreConfig) extends Exchange {
  var states: Array[PartitionState] = _

  def init(): Array[SubroundOut] = { states = parts.map(new PartitionState(_, cfg)); states.map(_.lastOut) }
  def step(in: SubroundIn): Array[SubroundOut] = states.map(_.advance(in))
  def gather(steps: Int): Array[Int] = states.flatMap(_.coreAt(steps))
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
