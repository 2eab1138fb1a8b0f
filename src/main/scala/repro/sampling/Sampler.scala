package repro.sampling

/** Sampling-scheme parameters and formulas (paper §4.1, Alg. 5).
  *
  * A vertex v with induced degree d̃ enters sample mode when `d̃·r > k` and
  * `d̃ > threshold`. Its sample rate is `μ / ((1−r)·d̃)`: by the time μ hits
  * have been collected, the induced degree is expected to have dropped to
  * `r·d̃`, at which point v is resampled (exact recount + SetSampler).
  * `μ = 4(c+2)·ln n` gives the Chernoff-bound correctness of Thm. 4.2.
  */
final case class SamplingParams(threshold: Int = 512, r: Double = 0.1, c: Double = 1.0)
    extends Serializable {

  /** Desired number of hits before resampling — Θ(log n). */
  def mu(n: Int): Int =
    math.max(8, math.ceil(4.0 * (c + 2.0) * math.log(math.max(2, n))).toInt)

  /** Is it safe to put a vertex with induced degree d into sample mode at
    * round k? (Alg. 5 line 13.)
    */
  def canSample(d: Int, k: Int): Boolean = d * r > k && d > threshold

  /** Sample rate for induced degree d (Alg. 5 line 15), clamped to ≤ 1. */
  def rateFor(d: Int, n: Int): Double = math.min(1.0, mu(n) / ((1.0 - r) * d))

  /** Validation check (Alg. 5 line 22): v may stay in sample mode for round
    * k iff k is still far below r·d̃ and too few hits have accumulated for
    * the degree to plausibly have dropped to k.
    */
  def validate(d: Int, k: Int, cnt: Int, rate: Double): Boolean =
    d * r > k && cnt < rate * (d - k) / 4.0

  /** The least round k′ > k at which `validate` fails for these values. Both
    * of its conditions only get harder as k grows, so it fails from k′ on;
    * it fails at k′ = max(k + 1, d) at the latest, since cnt ≥ 0.
    */
  def firstFailing(d: Int, k: Int, cnt: Int, rate: Double): Int = {
    var lo = k + 1
    var hi = math.max(k + 1, d)
    while (lo < hi) {
      val mid = lo + (hi - lo) / 2
      if (validate(d, mid, cnt, rate)) lo = mid + 1 else hi = mid
    }
    lo
  }
}
