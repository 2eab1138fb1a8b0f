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
