package repro.structures

import org.scalatest.funsuite.AnyFunSuite

/** Exercises every frontier strategy through the same round-by-round
  * simulation the engine performs, against a brute-force reference.
  */
class BucketStrategySpec extends AnyFunSuite {

  private def mkStrategy(name: String): BucketStrategy = name match {
    case "scanAll" => new ScanAllStrategy
    case "one" => new OneBucketStrategy
    case "fixed" => new FixedBucketsStrategy
    case "hier" => new HierarchicalStrategy(4) // low θ so HBS engages
  }

  private val names = Seq("scanAll", "one", "fixed", "hier")

  /** Peel a random graph-ish key system: each round, extract; then randomly
    * decrement some keys toward k (reporting every decrement), marking
    * extracted vertices dead.
    */
  private def stress(name: String, seed: Long): Unit = {
    val rng = new java.util.Random(seed)
    val n = 300
    val maxKey = 90
    val key = Array.fill(n)(rng.nextInt(maxKey + 1))
    val dead = new Array[Boolean](n)
    val sel = new Array[Boolean](n).map(_ => true)
    val s = mkStrategy(name)
    s.init(Array.range(0, n))
    (0 to maxKey).foreach { k =>
      (0 until 15).foreach { _ =>
        val v = rng.nextInt(n)
        if (!dead(v) && key(v) > k) {
          key(v) -= math.min(key(v) - k, 1 + rng.nextInt(3))
          s.onDecrease(v, key(v))
        }
      }
      val got = s.extract(k, key(_), v => !dead(v), v => sel(v)).sorted.toSeq
      val expect = (0 until n).filter(v => !dead(v) && key(v) == k)
      assert(got == expect, s"$name round $k")
      got.foreach(dead(_) = true)
    }
    assert(dead.forall(identity), name)
  }

  names.foreach { name =>
    test(s"$name: random stress against brute force") { stress(name, 7) }
    test(s"$name: second seed") { stress(name, 99) }
  }

  names.foreach { name =>
    test(s"$name: unselectable vertices are retained, not extracted") {
      val key = Array(2, 2, 2)
      val dead = Array(false, false, false)
      val sampled = Array(false, true, false)
      val s = mkStrategy(name)
      s.init(Array(0, 1, 2))
      (0 to 2).foreach { k =>
        val got = s.extract(k, key(_), v => !dead(v), v => !sampled(v)).sorted.toSeq
        if (k == 2) assert(got == Seq(0, 2)) else assert(got.isEmpty)
        got.foreach(dead(_) = true)
      }
      // Vertex 1 leaves sample mode with a recount → onDecrease gives the
      // strategy a fresh copy; it must be extractable in a later round.
      sampled(1) = false
      key(1) = 3
      s.onDecrease(1, 3)
      assert(s.extract(3, key(_), v => !dead(v), v => !sampled(v)).toSeq == Seq(1))
    }
  }

  /** Rounds go to the least key, as in the engine, and `minKey` must match
    * a brute-force minimum over alive, selectable keys, before and after
    * keys fall between rounds (leaving stale copies). Keys are sparse, so
    * rounds jump past HBS's single-key window and the fixed buckets' window.
    * A vertex in sample mode is not selectable; it leaves sample mode, with
    * a fresh copy at a key in (k, key], before a round can pass it.
    */
  private def minKeyStress(name: String, seed: Long): Unit = {
    val rng = new java.util.Random(seed)
    val n = 300
    val key = Array.fill(n)(37 * rng.nextInt(10))
    val dead = new Array[Boolean](n)
    val sampled = Array.fill(n)(rng.nextInt(8) == 0)
    val s = mkStrategy(name)
    s.init(Array.range(0, n))
    def query = s.minKey(key(_), v => !dead(v), v => !sampled(v))
    def brute = (0 until n).filter(v => !dead(v) && !sampled(v)).map(key).minOption.getOrElse(Int.MaxValue)
    var k = -1
    var jumps = 0
    while (dead.contains(false)) {
      val least = query
      assert(least == brute, s"$name after round $k")
      for (v <- 0 until n if !dead(v) && sampled(v) && (key(v) <= least || rng.nextInt(4) == 0)) {
        sampled(v) = false
        key(v) = k + 1 + rng.nextInt(key(v) - k)
        s.onDecrease(v, key(v))
      }
      val next = query
      assert(next == brute, s"$name after round $k, once sampled vertices left")
      if (next > k + 16) jumps += 1
      k = next
      val got = s.extract(k, key(_), v => !dead(v), v => !sampled(v)).sorted.toSeq
      assert(got == (0 until n).filter(v => !dead(v) && !sampled(v) && key(v) == k), s"$name round $k")
      got.foreach(dead(_) = true)
      (0 until 20).foreach { _ =>
        val v = rng.nextInt(n)
        if (!dead(v) && key(v) > k + 1) { key(v) -= 1 + rng.nextInt(key(v) - k - 1); s.onDecrease(v, key(v)) }
      }
    }
    assert(jumps > 0, s"$name: no round jumped past a window")
  }

  names.filter(_ != "scanAll").foreach { name =>
    test(s"$name: minKey against brute force") { minKeyStress(name, 7) }
    test(s"$name: minKey, second seed") { minKeyStress(name, 99) }
  }

  test("scanAll answers minKey with 0 and charges nothing: ParK and PKC visit every k") {
    val s = new ScanAllStrategy
    s.init(Array.range(0, 10))
    assert(s.minKey(_ => 5, _ => true, _ => true) == 0)
    assert(s.ops == 0)
  }

  test("fixed: minKey finds a key beyond the 16-bucket window in the overflow") {
    val key = Array(0, 3, 40, 90)
    val dead = new Array[Boolean](4)
    val s = new FixedBucketsStrategy
    s.init(Array.range(0, 4))
    def minKey = s.minKey(key(_), v => !dead(v), _ => true)
    assert(minKey == 0)
    assert(s.extract(0, key(_), v => !dead(v), _ => true).toSeq == Seq(0)) // window [0, 16)
    dead(0) = true
    assert(minKey == 3)
    key(2) = 10; s.onDecrease(2, 10) // its copy at 40 was never in the window
    assert(minKey == 3)
    assert(s.extract(3, key(_), v => !dead(v), _ => true).toSeq == Seq(1))
    dead(1) = true
    assert(minKey == 10)
    assert(s.extract(10, key(_), v => !dead(v), _ => true).toSeq == Seq(2))
    dead(2) = true
    assert(minKey == 90)
    assert(s.extract(90, key(_), v => !dead(v), _ => true).toSeq == Seq(3)) // rebuilt at 90
    dead(3) = true
    assert(minKey == Int.MaxValue)
  }

  test("ops counters increase with extraction work") {
    val s = new ScanAllStrategy
    s.init(Array.range(0, 100))
    val before = s.ops
    s.extract(0, _ => 5, _ => true, _ => true)
    assert(s.ops - before == 100)
  }

  test("scanAll rescans every round; oneBucket shrinks") {
    val n = 100
    val key = Array.fill(n)(1)
    val deadA = new Array[Boolean](n)
    val deadB = new Array[Boolean](n)
    val a = new ScanAllStrategy; a.init(Array.range(0, n))
    val b = new OneBucketStrategy; b.init(Array.range(0, n))
    // Round 0: nothing peels. Round 1: all peel. Round 2..5: empty.
    (0 to 5).foreach { k =>
      a.extract(k, key(_), v => !deadA(v), _ => true).foreach(deadA(_) = true)
      b.extract(k, key(_), v => !deadB(v), _ => true).foreach(deadB(_) = true)
    }
    // ScanAll paid n per round; OneBucket paid n only while vertices remained.
    assert(a.ops == 6L * n)
    assert(b.ops < a.ops)
  }
}
