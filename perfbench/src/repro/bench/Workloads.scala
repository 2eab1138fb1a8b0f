package repro.bench

import repro.graph.GraphGen._
import repro.graph.LocalGraph

/** A generated input: the canonical graph the engine is prepared from, and
  * the raw directed pairs it was canonicalized from (the `runDF` input).
  */
final case class Input(g: LocalGraph, srcs: Array[Int], dsts: Array[Int])

/** One benchmark workload: a graph built from the workload seed, and the
  * test that the seed kept it in the regime the workload is meant for.
  * `checkDfLayers` marks the workload whose `runDF` time is mostly outside
  * the engine; there the traced run checks that `runDF`'s layers, called one
  * by one, add up to it.
  */
final case class Workload(name: String, build: Long => Input,
                          inRegime: (Stats, Map[String, repro.engine.RunMetrics]) => Boolean,
                          checkDfLayers: Boolean)

/** Shape of a generated input (from `SeqKCore.framework`). */
final case class Stats(n: Int, m: Long, kmax: Int, rho: Int)

object Workloads {

  private def input(n: Int)(gen: EdgeList => Unit): Input = {
    val el = new EdgeList
    gen(el)
    val (s, d) = (el.srcs, el.dsts)
    Input(LocalGraph.fromPairs(n, s, d), s, d)
  }

  /** The graph `gen` makes, with its vertex ids permuted by `seed`. The seed
    * then decides which partition each vertex lands in and the order of the
    * raw pairs, but not the graph's shape: n, m, kmax and ρ are the same for
    * every seed.
    */
  private def relabeled(n: Int, seed: Long)(gen: EdgeList => Unit): Input = {
    val perm = Array.range(0, n)
    val rnd = new java.util.Random(seed)
    for (i <- n - 1 to 1 by -1) {
      val j = rnd.nextInt(i + 1)
      val t = perm(i); perm(i) = perm(j); perm(j) = t
    }
    val el = new EdgeList
    gen(el)
    val (s, d) = (el.srcs.map(perm), el.dsts.map(perm))
    Input(LocalGraph.fromPairs(n, s, d), s, d)
  }

  private def grid(side: Int): Input = input(side * side)(grid2d(_, side, side, 0.0, 0L))

  /** Generator seeds of the social graph's fixed shape. */
  private val SocialShapeSeed = 1L

  private def social(n: Int, m0: Int, core: Int, hubCount: Int, hubFrac: Double, seed: Long): Input =
    relabeled(n, seed) { el =>
      ba(el, n, m0, SocialShapeSeed)
      erBlock(el, core, 0.35, SocialShapeSeed + 1, offset = 0)
      hubs(el, n, hubCount, hubFrac, SocialShapeSeed + 2)
    }

  /** Why each workload (README.md has the full table):
    *  - grid-deep: a 40×40 grid (kmax 2, ρ 39). Julienne and ParK need 42
    *    near-empty subrounds, so their time is the engine's fixed cost per
    *    subround; Ours and PKC show what collapsing subrounds buys (11), and
    *    in `runDF` Catalyst and the distributed CSR build dominate. The grid
    *    has no randomness and keeps its natural ids, whose locality is what
    *    lets Ours and PKC collapse subrounds: the seed reaches only the
    *    sampler.
    *  - social-hubs: BA(1500, 2) + an ER(60, 0.35) core + 12 hubs on 40% of
    *    the vertices (degree ≈ 600, above the sampling threshold), with ids
    *    permuted by the seed. The only workload where sampling, HBS and
    *    Julienne's histogram do real work, and the heavier on message routing.
    *    Its shape is fixed (generator seeds `SocialShapeSeed`), so that every
    *    seed needs about the same number of subrounds.
    * The sizes keep a run near a minute with several samples of each kind: a
    * decomposition's time is set by its subrounds (one Spark job each), not
    * by the graph's size.
    */
  val all: Seq[Workload] = Seq(
    Workload("grid-deep", _ => grid(40),
      (s, _) => s.kmax == 2 && s.rho == 39, checkDfLayers = true),
    Workload("social-hubs", seed => social(1500, 2, 60, 12, 0.40, seed),
      (_, runs) => runs.get("ours").exists(_.maxSampled > 0), checkDfLayers = false),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (one of ${all.map(_.name).mkString(", ")})"))
}
