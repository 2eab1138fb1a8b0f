package repro.sampling

import org.scalatest.funsuite.AnyFunSuite

class SamplerSpec extends AnyFunSuite {
  private val sp = SamplingParams()

  test("mu is Θ(log n)") {
    val mu1 = sp.mu(1000)
    val mu2 = sp.mu(1000000)
    assert(mu1 >= 8)
    assert(mu2 > mu1)
    assert(mu2 <= mu1 * 3) // log-ish growth, not polynomial
  }

  test("mu matches 4(c+2)ln n") {
    assert(sp.mu(10000) == math.ceil(4 * 3.0 * math.log(10000)).toInt)
  }

  test("canSample requires degree above threshold") {
    assert(!sp.canSample(512, 0))
    assert(sp.canSample(513, 0))
  }

  test("canSample requires r*d > k") {
    assert(sp.canSample(1000, 99))   // 100 > 99
    assert(!sp.canSample(1000, 100)) // 100 > 100 fails
  }

  test("rate is mu/((1-r)d), clamped to 1") {
    val n = 100000
    val d = 10000
    assert(math.abs(sp.rateFor(d, n) - sp.mu(n) / (0.9 * d)) < 1e-12)
    assert(sp.rateFor(1, n) == 1.0)
  }

  test("expected hits at the resample point is mu") {
    // After (1-r)*d neighbors are removed, hits ≈ rate * (1-r) * d = mu.
    val n = 100000; val d = 20000
    val expectedHits = sp.rateFor(d, n) * (1 - sp.r) * d
    assert(math.abs(expectedHits - sp.mu(n)) < 1e-6)
  }

  test("validate fails when k reaches r*d") {
    assert(!sp.validate(1000, 100, 0, 0.1))
    assert(sp.validate(1000, 99, 0, 0.1))
  }

  test("validate fails once a quarter of the expected hits accumulate") {
    val d = 10000; val k = 100
    val rate = sp.rateFor(d, 100000)
    val limit = rate * (d - k) / 4.0
    assert(sp.validate(d, k, (limit - 1).toInt, rate))
    assert(!sp.validate(d, k, (limit + 1).toInt, rate))
  }

  test("Chernoff simulation: degree estimate never misses a peel (Lem 4.1 regime)") {
    // Simulate t coin tosses at rate p with tp >= mu: the count must reach
    // tp/4 in (almost) every trial — mirrors the whp bound.
    val rng = new java.util.Random(123)
    val n = 50000
    val d = 5000
    val p = sp.rateFor(d, n)
    val t = d - (sp.r * d).toInt // tosses until validate's first condition trips
    var failures = 0
    (0 until 200).foreach { _ =>
      var s = 0
      (0 until t).foreach(_ => if (rng.nextDouble() < p) s += 1)
      if (s < t * p / 4) failures += 1
    }
    assert(failures == 0, s"$failures of 200 trials fell below tp/4")
  }

  test("validate catches a silently-drained vertex with high probability") {
    // If the true degree dropped to k, ~rate*(d-k) hits were taken, which is
    // ≈ 4x the validate limit — validation must fail.
    val rng = new java.util.Random(7)
    val n = 50000; val d = 2000; val k = 150
    val p = sp.rateFor(d, n)
    (0 until 100).foreach { _ =>
      var hits = 0
      (0 until (d - k)).foreach(_ => if (rng.nextDouble() < p) hits += 1)
      assert(!sp.validate(d, k, hits, p), s"validate passed with $hits hits")
    }
  }

  test("firstFailing is the first round after k at which validate fails (brute force)") {
    val rng = new java.util.Random(11)
    for (params <- Seq(sp, SamplingParams(threshold = 16, r = 0.5), SamplingParams(r = 0.9)); _ <- 0 until 2000) {
      val d = rng.nextInt(3000)
      val k = rng.nextInt(400) - 1
      val cnt = rng.nextInt(60)
      val rate = if (rng.nextBoolean()) params.rateFor(math.max(1, d), 1 + rng.nextInt(100000)) else rng.nextDouble()
      val brute = Iterator.from(k + 1).find(kk => !params.validate(d, kk, cnt, rate)).get
      assert(params.firstFailing(d, k, cnt, rate) == brute, s"$params d=$d k=$k cnt=$cnt rate=$rate")
    }
  }

  test("small graphs never sample under default threshold") {
    (1 to 500).foreach(d => assert(!sp.canSample(d, 0)))
  }

  test("custom params shift the threshold") {
    val loose = SamplingParams(threshold = 32)
    assert(loose.canSample(100, 0))
    assert(!loose.canSample(100, 11)) // r*d = 10 <= k
  }
}
