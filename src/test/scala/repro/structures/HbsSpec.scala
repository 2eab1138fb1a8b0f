package repro.structures

import org.scalatest.funsuite.AnyFunSuite

/** Drives the HBS the way the engine does: keys only decrease, every change
  * goes through decreaseKey, extraction happens for k = 0, 1, 2, … in order.
  */
class HbsSpec extends AnyFunSuite {

  /** Reference harness: maintain true keys/alive and compare extraction
    * against a brute-force scan for every round.
    */
  private def simulate(maxKey: Int, initial: Map[Int, Int],
                       decrements: Map[Int, Seq[(Int, Int)]]): Unit = {
    // decrements: round -> (vertex, newKey) applied before that round's extract
    val hbs = new Hbs
    val key = scala.collection.mutable.Map(initial.toSeq: _*)
    val dead = scala.collection.mutable.Set[Int]()
    initial.foreach { case (v, d) => hbs.insert(v, d) }
    (0 to maxKey).foreach { k =>
      decrements.getOrElse(k, Seq.empty).foreach { case (v, nk) =>
        if (!dead(v)) { key(v) = nk; hbs.decreaseKey(v, nk) }
      }
      val got = hbs.extractForRound(k, key(_), v => !dead(v)).toSeq
      val expect = key.collect { case (v, d) if d == k && !dead(v) => v }.toSeq.sorted
      assert(got == expect, s"round $k: got $got expected $expect")
      got.foreach(dead.add)
    }
  }

  test("static keys extract in order") {
    simulate(20, Map(1 -> 0, 2 -> 3, 3 -> 7, 4 -> 8, 5 -> 15, 6 -> 16, 7 -> 20), Map.empty)
  }

  test("all same key") {
    simulate(9, (0 until 30).map(v => v -> 9).toMap, Map.empty)
  }

  test("keys spanning ranged buckets") {
    simulate(100, Map(1 -> 100, 2 -> 64, 3 -> 33, 4 -> 17, 5 -> 9, 6 -> 1), Map.empty)
  }

  test("decrements pull vertices forward") {
    simulate(50,
      Map(1 -> 50, 2 -> 40, 3 -> 30),
      Map(3 -> Seq((1, 3)), 5 -> Seq((2, 5)), 7 -> Seq((3, 7))))
  }

  test("multiple decrements of the same vertex leave stale copies that are filtered") {
    simulate(40,
      Map(1 -> 40),
      Map(2 -> Seq((1, 20), (1, 10), (1, 2))))
  }

  test("vertex peeled early is never re-extracted") {
    val hbs = new Hbs
    hbs.insert(1, 2)
    hbs.insert(2, 2)
    val keys = scala.collection.mutable.Map(1 -> 2, 2 -> 2)
    var alive = Set(1, 2)
    assert(hbs.extractForRound(0, keys(_), alive).isEmpty)
    assert(hbs.extractForRound(1, keys(_), alive).isEmpty)
    alive -= 1 // externally peeled (e.g. by a chain)
    assert(hbs.extractForRound(2, keys(_), alive).toSeq == Seq(2))
  }

  test("random stress against brute force") {
    val rng = new java.util.Random(42)
    val n = 400
    val maxKey = 120
    val key = Array.fill(n)(rng.nextInt(maxKey + 1))
    val hbs = new Hbs
    (0 until n).foreach(v => hbs.insert(v, key(v)))
    val dead = new Array[Boolean](n)
    (0 to maxKey).foreach { k =>
      // Random decrements toward k of some alive vertices with key > k.
      (0 until 20).foreach { _ =>
        val v = rng.nextInt(n)
        if (!dead(v) && key(v) > k) {
          val nk = k + rng.nextInt(key(v) - k + 1)
          if (nk < key(v)) { key(v) = nk; hbs.decreaseKey(v, nk) }
        }
      }
      val got = hbs.extractForRound(k, key(_), v => !dead(v)).toSeq
      val expect = (0 until n).filter(v => !dead(v) && key(v) == k)
      assert(got == expect, s"round $k")
      got.foreach(dead(_) = true)
    }
    assert(dead.forall(identity))
  }

  test("minKey is the least live key, across stale copies and jumps of more than 8 keys") {
    // Rounds go to the answer, as in the engine; between rounds keys fall
    // (leaving stale copies) but stay above k, and some vertices die early.
    val rng = new java.util.Random(3)
    val n = 200
    val key = Array.fill(n)(29 * rng.nextInt(12))
    val dead = new Array[Boolean](n)
    val hbs = new Hbs
    (0 until n).foreach(v => hbs.insert(v, key(v)))
    def brute = (0 until n).filter(v => !dead(v)).map(key).minOption.getOrElse(Int.MaxValue)
    var k = -1
    var jumps = 0
    while (dead.contains(false)) {
      val q = hbs.minKey(key(_), v => !dead(v))
      assert(q == brute, s"after round $k")
      if (q > k + 8) jumps += 1
      k = q
      val got = hbs.extractForRound(k, key(_), v => !dead(v)).toSeq
      assert(got == (0 until n).filter(v => !dead(v) && key(v) == k), s"round $k")
      got.foreach(dead(_) = true)
      (0 until 5).foreach { _ =>
        val v = rng.nextInt(n)
        if (!dead(v) && key(v) > k + 1) { key(v) -= 1 + rng.nextInt(key(v) - k - 1); hbs.decreaseKey(v, key(v)) }
      }
      val v = rng.nextInt(n)
      if (rng.nextBoolean()) dead(v) = true // peeled by a chain: its copies are stale
      assert(hbs.minKey(key(_), v => !dead(v)) == brute, s"round $k, second query")
    }
    assert(jumps > 2, s"only $jumps jumps of more than 8 keys")
  }

  test("minKey reads the single-key window where a jump of more than 8 keys moved it") {
    val hbs = new Hbs
    val key = scala.collection.mutable.Map(1 -> 2, 2 -> 30, 3 -> 31, 4 -> 70)
    var alive = Set(1, 2, 3, 4)
    key.foreach { case (v, d) => hbs.insert(v, d) }
    assert(hbs.minKey(key(_), alive) == 2)
    assert(hbs.extractForRound(2, key(_), alive).toSeq == Seq(1))
    alive -= 1
    assert(hbs.minKey(key(_), alive) == 30)
    assert(hbs.extractForRound(30, key(_), alive).toSeq == Seq(2)) // the window is now [30, 38)
    alive -= 2
    key(4) = 33; hbs.decreaseKey(4, 33) // its copy at 70 is stale
    assert(hbs.minKey(key(_), alive) == 31)
    alive -= 3
    assert(hbs.minKey(key(_), alive) == 33)
    alive -= 4
    assert(hbs.minKey(key(_), alive) == Int.MaxValue)
  }

  test("opsCost grows with activity") {
    val hbs = new Hbs
    val before = hbs.opsCost
    hbs.insert(1, 5)
    assert(hbs.opsCost > before)
  }

  test("totalEntries counts live + stale copies") {
    val hbs = new Hbs
    hbs.insert(1, 8)
    hbs.decreaseKey(1, 4)
    assert(hbs.totalEntries == 2)
  }

  test("bucketIdx layout: first 8 single, then 8/16/32 ranges") {
    val hbs = new Hbs
    (0 until 8).foreach(d => assert(hbs.bucketIdx(d) == d, s"d=$d"))
    // ranged indices are relative to the companion's internal scheme:
    assert(hbs.bucketIdx(8) == hbs.bucketIdx(15))
    assert(hbs.bucketIdx(16) == hbs.bucketIdx(31))
    assert(hbs.bucketIdx(15) != hbs.bucketIdx(16))
    assert(hbs.bucketIdx(32) == hbs.bucketIdx(63))
    assert(hbs.bucketIdx(31) != hbs.bucketIdx(32))
  }
}
