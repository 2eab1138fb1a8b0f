package repro.structures

import org.scalatest.funsuite.AnyFunSuite

/** Exercises every frontier strategy through the same round-by-round
  * simulation the engine performs, against a brute-force reference.
  */
class BucketStrategySpec extends AnyFunSuite {

  /** Strategy `name` over the vertices [lo, hi), reading `keys`. */
  private def mkStrategy(name: String, keys: VertexKeys, lo: Int, hi: Int): BucketStrategy = name match {
    case "scanAll" => new ScanAllStrategy(keys, lo, hi)
    case "one" => new OneBucketStrategy(keys, lo, hi)
    case "fixed" => new FixedBucketsStrategy(keys, lo, hi)
    case "hier" => new HierarchicalStrategy(keys, lo, hi, 4) // low θ so HBS engages
  }

  private val names = Seq("scanAll", "one", "fixed", "hier")

  /** Peel a random graph-ish key system over the vertices [lo, lo + n): each
    * round, extract; then randomly decrement some keys toward k (reporting
    * every decrement), marking extracted vertices dead. The test's arrays are
    * indexed by v − lo.
    */
  private def stress(name: String, seed: Long, lo: Int = 0): Unit = {
    val rng = new java.util.Random(seed)
    val n = 300
    val maxKey = 90
    val key = Array.fill(n)(rng.nextInt(maxKey + 1))
    val dead = new Array[Boolean](n)
    val s = mkStrategy(name, new FnKeys(v => key(v - lo), v => !dead(v - lo)), lo, lo + n)
    (0 to maxKey).foreach { k =>
      (0 until 15).foreach { _ =>
        val i = rng.nextInt(n)
        if (!dead(i) && key(i) > k) {
          key(i) -= math.min(key(i) - k, 1 + rng.nextInt(3))
          s.onDecrease(lo + i, key(i))
        }
      }
      val got = s.extract(k).sorted.toSeq
      val expect = (0 until n).filter(i => !dead(i) && key(i) == k).map(lo + _)
      assert(got == expect, s"$name round $k")
      got.foreach(v => dead(v - lo) = true)
    }
    assert(dead.forall(identity), name)
  }

  names.foreach { name =>
    test(s"$name: random stress against brute force") { stress(name, 7) }
    test(s"$name: second seed") { stress(name, 99) }
    test(s"$name: second seed over [1000, 1300)") { stress(name, 99, lo = 1000) }
  }

  names.foreach { name =>
    test(s"$name: unselectable vertices are retained, not extracted") {
      val key = Array(2, 2, 2)
      val dead = Array(false, false, false)
      val sampled = Array(false, true, false)
      val s = mkStrategy(name, new FnKeys(key(_), v => !dead(v), v => !sampled(v)), 0, 3)
      (0 to 2).foreach { k =>
        val got = s.extract(k).sorted.toSeq
        if (k == 2) assert(got == Seq(0, 2)) else assert(got.isEmpty)
        got.foreach(dead(_) = true)
      }
      // Vertex 1 leaves sample mode with a recount → onDecrease gives the
      // strategy a fresh copy; it must be extractable in a later round.
      sampled(1) = false
      key(1) = 3
      s.onDecrease(1, 3)
      assert(s.extract(3).toSeq == Seq(1))
    }
  }

  /** Rounds go to the least key, as in the engine, and `minKey` must match
    * a brute-force minimum over alive, selectable keys, before and after
    * keys fall between rounds (leaving stale copies). Keys are sparse, so
    * rounds jump past HBS's single-key window and the fixed buckets' window.
    * A vertex in sample mode is not selectable; it leaves sample mode, with
    * a fresh copy at a key in (k, key], before a round can pass it. The
    * vertices are [lo, lo + n); the test's arrays are indexed by v − lo.
    */
  private def minKeyStress(name: String, seed: Long, lo: Int = 0): Unit = {
    val rng = new java.util.Random(seed)
    val n = 300
    val key = Array.fill(n)(37 * rng.nextInt(10))
    val dead = new Array[Boolean](n)
    val sampled = Array.fill(n)(rng.nextInt(8) == 0)
    val s = mkStrategy(name, new FnKeys(v => key(v - lo), v => !dead(v - lo), v => !sampled(v - lo)), lo, lo + n)
    def query = s.minKey()
    def brute = (0 until n).filter(v => !dead(v) && !sampled(v)).map(key).minOption.getOrElse(Int.MaxValue)
    var k = -1
    var jumps = 0
    while (dead.contains(false)) {
      val least = query
      assert(least == brute, s"$name after round $k")
      for (v <- 0 until n if !dead(v) && sampled(v) && (key(v) <= least || rng.nextInt(4) == 0)) {
        sampled(v) = false
        key(v) = k + 1 + rng.nextInt(key(v) - k)
        s.onDecrease(lo + v, key(v))
      }
      val next = query
      assert(next == brute, s"$name after round $k, once sampled vertices left")
      if (next > k + 16) jumps += 1
      k = next
      val got = s.extract(k).sorted.toSeq
      assert(got == (0 until n).filter(v => !dead(v) && !sampled(v) && key(v) == k).map(lo + _), s"$name round $k")
      got.foreach(v => dead(v - lo) = true)
      (0 until 20).foreach { _ =>
        val v = rng.nextInt(n)
        if (!dead(v) && key(v) > k + 1) { key(v) -= 1 + rng.nextInt(key(v) - k - 1); s.onDecrease(lo + v, key(v)) }
      }
    }
    assert(jumps > 0, s"$name: no round jumped past a window")
  }

  names.filter(_ != "scanAll").foreach { name =>
    test(s"$name: minKey against brute force") { minKeyStress(name, 7) }
    test(s"$name: minKey, second seed") { minKeyStress(name, 99) }
    test(s"$name: minKey, second seed over [1000, 1300)") { minKeyStress(name, 99, lo = 1000) }
  }

  test("scanAll answers minKey with 0 and charges nothing: ParK and PKC visit every k") {
    val s = new ScanAllStrategy(new FnKeys(_ => 5, _ => true), 0, 10)
    assert(s.minKey() == 0)
    assert(s.ops == 0)
  }

  test("fixed: minKey finds a key beyond the 16-bucket window in the overflow") {
    val key = Array(0, 3, 40, 90)
    val dead = new Array[Boolean](4)
    val s = new FixedBucketsStrategy(new FnKeys(key(_), v => !dead(v)), 0, 4)
    def minKey = s.minKey()
    assert(minKey == 0)
    assert(s.extract(0).toSeq == Seq(0)) // window [0, 16)
    dead(0) = true
    assert(minKey == 3)
    key(2) = 10; s.onDecrease(2, 10) // its copy at 40 was never in the window
    assert(minKey == 3)
    assert(s.extract(3).toSeq == Seq(1))
    dead(1) = true
    assert(minKey == 10)
    assert(s.extract(10).toSeq == Seq(2))
    dead(2) = true
    assert(minKey == 90)
    assert(s.extract(90).toSeq == Seq(3)) // rebuilt at 90
    dead(3) = true
    assert(minKey == Int.MaxValue)
  }

  test("ops counters increase with extraction work") {
    val s = new ScanAllStrategy(new FnKeys(_ => 5, _ => true), 0, 100)
    val before = s.ops
    s.extract(0)
    assert(s.ops - before == 100)
  }

  test("scanAll rescans every round; oneBucket shrinks") {
    val n = 100
    val key = Array.fill(n)(1)
    val deadA = new Array[Boolean](n)
    val deadB = new Array[Boolean](n)
    val a = new ScanAllStrategy(new FnKeys(key(_), v => !deadA(v)), 0, n)
    val b = new OneBucketStrategy(new FnKeys(key(_), v => !deadB(v)), 0, n)
    // Round 0: nothing peels. Round 1: all peel. Round 2..5: empty.
    (0 to 5).foreach { k =>
      a.extract(k).foreach(deadA(_) = true)
      b.extract(k).foreach(deadB(_) = true)
    }
    // ScanAll paid n per round; OneBucket paid n only while vertices remained.
    assert(a.ops == 6L * n)
    assert(b.ops < a.ops)
  }
}
