package repro.core

import repro.sampling.SamplingParams

/** How the Peel function runs (paper §3.2): Online applies owned-neighbor
  * decrements immediately and ships raw per-edge remote decrements
  * (ParK/PKC/ours); Offline batches everything through a histogram, applied
  * at the next subround (Julienne, Alg. 2).
  */
sealed trait PeelMode extends Serializable
case object Online extends PeelMode
case object Offline extends PeelMode

/** Round-start frontier-extraction choice (paper §5). */
sealed trait BucketChoice extends Serializable
case object ScanAllBuckets extends BucketChoice               // ParK/PKC: no active set
case object OneBucket extends BucketChoice                    // Alg. 1: packed active set
case object FixedBuckets extends BucketChoice                 // Julienne: 16 buckets
case object Hierarchical extends BucketChoice                 // §5.3 final design, θ = Theta

/** Full configuration of a parallel k-core run.
  *
  * @param vgcQueue  local-search queue capacity (paper §4.2): 0 disables VGC,
  *                  128 is the paper's default, Int.MaxValue emulates PKC's
  *                  unbounded thread-local buffers.
  * @param nParts    logical partitions of the CSR that `runDF` builds; `run`
  *                  takes them from its `GraphHandle` and ignores this field.
  */
final case class KCoreConfig(
    name: String,
    peel: PeelMode = Online,
    vgcQueue: Int = 0,
    sampling: Option[SamplingParams] = None,
    buckets: BucketChoice = OneBucket,
    nParts: Int = 16,
    seed: Long = 42L) extends Serializable

object KCoreConfig {
  val VgcDefault = 128
  /** θ of `Hierarchical`: HBS takes over from one bucket at the θ-core. */
  val Theta = 16

  /** The paper's final algorithm: online + sampling + VGC + HBS. */
  def ours: KCoreConfig =
    KCoreConfig("Ours", Online, VgcDefault, Some(SamplingParams()), Hierarchical)

  /** The plain framework (Alg. 1 + online peel, no techniques, one bucket). */
  def plain: KCoreConfig = KCoreConfig("Plain")

  /** Julienne baseline: offline histogram peeling, 16 fixed buckets. */
  def julienne: KCoreConfig = KCoreConfig("Julienne", Offline, 0, None, FixedBuckets)

  /** ParK baseline: online, no active set, no VGC/sampling. */
  def park: KCoreConfig = KCoreConfig("ParK", Online, 0, None, ScanAllBuckets)

  /** PKC baseline: online, no active set, unbounded local chains
    * (thread-local buffers → exactly one cross-partition subround per chain
    * level).
    */
  def pkc: KCoreConfig = KCoreConfig("PKC", Online, Int.MaxValue, None, ScanAllBuckets)

  /** The 8 technique combinations of Tab. 3: {VGC} × {sampling} × {HBS}. */
  def combos: Seq[KCoreConfig] = {
    for {
      (vgc, vn) <- Seq((0, ""), (VgcDefault, "VGC"))
      (smp, sn) <- Seq((None: Option[SamplingParams], ""), (Some(SamplingParams()), "Sample"))
      (bkt, bn) <- Seq((OneBucket: BucketChoice, ""), (Hierarchical: BucketChoice, "HBS"))
    } yield {
      val parts = Seq(vn, sn, bn).filter(_.nonEmpty)
      val nm =
        if (parts.isEmpty) "Plain"
        else if (parts.size == 3) "All" // paper's name for VGC+Sample+HBS
        else parts.mkString("+")
      KCoreConfig(nm, Online, vgc, smp, bkt)
    }
  }
}
