package repro.model

import repro.engine.RunMetrics

/** Multicore cost model over the engine's exact operation counts.
  *
  * The paper's evaluation machine (96 cores, OpenCilk) is modeled with the
  * paper's own formalism: a work-span schedule `T_P = W/P + S_b`, where the
  * burdened span `S_b` charges ω = `Omega` = 1000 unit operations per
  * subround (Cilkview's scheduling-overhead constant, §2, scaled to our
  * graph sizes) plus each subround's critical path — the maximum
  * per-partition work, which already contains the serial application of
  * messages at a hot vertex's owner (the atomic-contention analogue).
  *
  * `unitNanos` converts unit operations to seconds for table display
  * (≈ 1 ns/op, a typical simple-op throughput on the paper's 2.1 GHz Xeons).
  */
object CostModel {
  /** Scale-adjusted ω used for the modeled tables. Cilkview's burdened-span
    * constant at the paper's scale is ω = 15000. Our graphs are 10³–10⁶×
    * smaller than the paper's, so charging the full Cilkview constant per
    * subround would let scheduling overhead drown every other effect — a
    * regime the paper's machines are NOT in (e.g. paper GRID: W ≈ 5·10⁸ vs
    * ρ·ω ≈ 7.6·10⁸, a ratio near 1; at our GRID size the same ω gives a
    * ratio of ~10⁻¹). ω = 1000 restores the paper's work-to-scheduling-
    * overhead ratio at our scale; see EXPERIMENTS.md for the derivation.
    */
  val Omega = 1000L
  val DefaultP = 96
  val unitNanos = 1.0

  final case class Modeled(
      work: Long,
      burdenedSpan: Long,
      t1Seconds: Double,
      tpSeconds: Double,
      modelSpeedup: Double)

  def apply(m: RunMetrics, p: Int = DefaultP): Modeled = {
    val span = m.subrounds.toLong * Omega + m.spanOps
    val t1Ops = m.work.toDouble
    val tpOps = m.work.toDouble / p + span.toDouble
    Modeled(m.work, span, t1Ops * unitNanos / 1e9, tpOps * unitNanos / 1e9,
      if (tpOps > 0) t1Ops / tpOps else 0.0)
  }

  /** Modeled P-core runtime in seconds. */
  def tpSeconds(m: RunMetrics, p: Int = DefaultP): Double = apply(m, p).tpSeconds
}
