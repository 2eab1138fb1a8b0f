package repro.graph

import GraphGen._

/** The 25-graph evaluation suite — laptop-scale analogues of the paper's
  * Table 2 graphs, plus the paper's published numbers for side-by-side
  * reporting in EXPERIMENTS.md.
  *
  * Every build is deterministic; `LocalGraph` canonicalization symmetrizes
  * and deduplicates whatever the generators emit.
  */
object GraphSuite {

  /** Paper-published Table 2 row (strings keep T/O and OOM entries). */
  final case class PaperRow(n: String, m: String, kmax: Int, rho: Int,
                            seq: String, par: String, bz: String,
                            julienne: String, park: String, pkc: String)

  final case class GraphSpec(
      name: String,
      category: String, // Social | Web | Road | kNN | Other
      dense: Boolean,
      paper: PaperRow,
      build: () => LocalGraph)

  private def socialWeb(n: Int, m0: Int, core: (Int, Double), hub: Option[(Int, Double)],
                        seed: Long): LocalGraph = {
    val el = new EdgeList
    ba(el, n, m0, seed)
    erBlock(el, core._1, core._2, seed + 1, offset = 0)
    hub.foreach { case (h, f) => hubs(el, n, h, f, seed + 2) }
    LocalGraph.fromPairs(n, el.srcs, el.dsts)
  }

  private def road(rows: Int, cols: Int, diag: Double, seed: Long): LocalGraph = {
    val el = new EdgeList
    grid2d(el, rows, cols, diag, seed)
    LocalGraph.fromPairs(rows * cols, el.srcs, el.dsts)
  }

  private def knnGraph(n: Int, k: Int, dims: Int, seed: Long): LocalGraph = {
    val el = new EdgeList
    knn(el, n, k, dims, seed)
    LocalGraph.fromPairs(n, el.srcs, el.dsts)
  }

  private def mesh(nCycles: Int, cycleLen: Int, pathLen: Int): LocalGraph = {
    val el = new EdgeList
    val used = caterpillar(el, nCycles, cycleLen, pathLen)
    LocalGraph.fromPairs(used, el.srcs, el.dsts)
  }

  val all: Seq[GraphSpec] = Seq(
    // ---- Social networks (dense) -------------------------------------------
    GraphSpec("LJ", "Social", dense = true,
      PaperRow("4.85M", "85.7M", 372, 3480, "2.37", ".203", "1.49", ".631", ".637", ".518"),
      () => socialWeb(25000, 7, (140, 0.30), None, seed = 11)),
    GraphSpec("OK", "Social", dense = true,
      PaperRow("3.07M", "234M", 253, 5667, "3.94", ".526", "3.65", "1.23", "1.38", ".810"),
      () => socialWeb(15000, 12, (150, 0.35), None, seed = 12)),
    GraphSpec("WB", "Social", dense = true,
      PaperRow("58.7M", "523M", 193, 2910, "29.5", ".935", "14.3", "1.16", "2.64", "2.18"),
      () => socialWeb(30000, 6, (120, 0.30), Some((6, 0.15)), seed = 13)),
    GraphSpec("TW", "Social", dense = true,
      PaperRow("41.7M", "2.41B", 2488, 14964, "62.2", "2.72", "61.2", "4.79", "857", "75.6"),
      () => socialWeb(25000, 8, (160, 0.35), Some((12, 0.30)), seed = 14)),
    GraphSpec("FS", "Social", dense = true,
      PaperRow("65.6M", "3.61B", 304, 10034, "126", "3.68", "174", "6.18", "416", "33.1"),
      () => socialWeb(35000, 10, (150, 0.30), None, seed = 15)),
    // ---- Web graphs (dense) -------------------------------------------------
    GraphSpec("EH", "Web", dense = true,
      PaperRow("11.3M", "522M", 9877, 7393, "8.21", ".795", "5.49", "1.39", "5.67", "8.22"),
      () => socialWeb(18000, 8, (200, 0.40), Some((6, 0.15)), seed = 21)),
    GraphSpec("SD", "Web", dense = true,
      PaperRow("89.3M", "3.88B", 10507, 19063, "140", "4.39", "143", "6.56", "410", "57.5"),
      () => socialWeb(25000, 9, (220, 0.40), Some((10, 0.20)), seed = 22)),
    GraphSpec("CW", "Web", dense = true,
      PaperRow("978M", "74.7B", 4244, 106819, "2453", "28.6", "2328", "—", "T/O", "T/O"),
      () => socialWeb(40000, 10, (250, 0.40), Some((16, 0.25)), seed = 23)),
    GraphSpec("HL14", "Web", dense = true,
      PaperRow("1.72B", "124B", 4160, 58737, "3587", "54.7", "OOM", "—", "OOM", "OOM"),
      () => socialWeb(35000, 9, (220, 0.40), Some((10, 0.18)), seed = 24)),
    GraphSpec("HL12", "Web", dense = true,
      PaperRow("3.56B", "226B", 10565, 130737, "9177", "108", "OOM", "152", "OOM", "OOM"),
      () => socialWeb(45000, 8, (280, 0.40), Some((12, 0.18)), seed = 25)),
    // ---- Road networks (sparse) --------------------------------------------
    GraphSpec("AF", "Road", dense = false,
      PaperRow("33.5M", "88.9M", 3, 189, "9.83", ".155", "5.54", ".281", ".363", ".253"),
      () => road(140, 140, 0.08, seed = 31)),
    GraphSpec("NA", "Road", dense = false,
      PaperRow("87.0M", "220M", 4, 286, "32.4", ".432", "12.4", ".682", ".724", ".417"),
      () => road(180, 150, 0.08, seed = 32)),
    GraphSpec("AS", "Road", dense = false,
      PaperRow("95.7M", "244M", 4, 343, "34.8", ".480", "16.0", ".709", ".878", ".656"),
      () => road(190, 150, 0.10, seed = 33)),
    GraphSpec("EU", "Road", dense = false,
      PaperRow("131M", "333M", 4, 513, "47.4", ".679", "33.2", ".925", ".869", ".609"),
      () => road(210, 160, 0.10, seed = 34)),
    // ---- k-NN graphs (sparse) ----------------------------------------------
    GraphSpec("CH5", "kNN", dense = false,
      PaperRow("4.21M", "29.7M", 5, 7, ".826", ".021", ".431", ".042", ".037", ".021"),
      () => knnGraph(8000, 5, 2, seed = 41)),
    GraphSpec("GL2", "kNN", dense = false,
      PaperRow("24.9M", "65.3M", 2, 12, "6.96", ".109", "7.69", "—", ".155", ".113"),
      () => knnGraph(18000, 2, 2, seed = 42)),
    GraphSpec("GL5", "kNN", dense = false,
      PaperRow("24.9M", "157M", 5, 42, "6.81", ".125", "3.54", "—", ".179", ".249"),
      () => knnGraph(18000, 5, 2, seed = 43)),
    GraphSpec("GL10", "kNN", dense = false,
      PaperRow("24.9M", "310M", 10, 16, "8.46", ".162", "5.57", "—", ".175", ".168"),
      () => knnGraph(18000, 10, 2, seed = 44)),
    GraphSpec("COS5", "kNN", dense = false,
      PaperRow("321M", "1.96B", 2, 23, "117", "2.06", "61.9", "3.66", "2.74", "2.08"),
      () => knnGraph(30000, 5, 3, seed = 45)),
    // ---- Others -------------------------------------------------------------
    GraphSpec("TRCE", "Other", dense = false,
      PaperRow("16.0M", "48.0M", 2, 1839, "2.03", ".066", "1.49", "1.96", ".424", ".067"),
      () => mesh(120, 8, 110)),
    GraphSpec("BBL", "Other", dense = false,
      PaperRow("21.2M", "63.6M", 2, 1915, "3.18", ".077", "3.36", "1.80", ".203", ".081"),
      () => mesh(150, 8, 100)),
    GraphSpec("GRID", "Other", dense = false,
      PaperRow("100M", "400M", 2, 50499, "6.21", ".282", "14.1", "14.8", "8.03", "3.21"),
      () => road(170, 170, 0.0, seed = 51)),
    GraphSpec("CUBE", "Other", dense = false,
      PaperRow("1.00B", "6.0B", 3, 2895, "183", "4.01", "162", "—", "110", "10.8"),
      () => { val el = new EdgeList; cube3d(el, 18, 18, 18); LocalGraph.fromPairs(18 * 18 * 18, el.srcs, el.dsts) }),
    GraphSpec("HCNS", "Other", dense = true,
      PaperRow("0.1M", "5.0B", 50000, 50000, "27.8", "2.01", "23.5", "—", "49.7", "OOM"),
      () => {
        // Dense random block (degree ≈ 560 > sampling threshold, coreness
        // concentrated near kmax, active for every round) + one chain vertex
        // per low coreness + a big padding ring that no-active-set
        // algorithms rescan in all ~kmax rounds.
        val el = new EdgeList
        denseBlock(el, 4000, 280, 71, offset = 0)
        val rng = new java.util.Random(72)
        var next = 4000
        var i = 1
        while (i < 250) {
          var j = 0
          while (j < i) { el.add(next, rng.nextInt(4000)); j += 1 }
          next += 1; i += 1
        }
        val ringBase = next
        val ring = 40000
        var r = 0
        while (r < ring) { el.add(ringBase + r, ringBase + ((r + 1) % ring)); r += 1 }
        LocalGraph.fromPairs(ringBase + ring, el.srcs, el.dsts)
      }),
    GraphSpec("HPL", "Other", dense = true,
      PaperRow("100M", "1.20B", 3980, 6297, "47.3", "1.77", "38.9", "3.59", "30.4", "59.1"),
      () => { val el = new EdgeList; ba(el, 40000, 10, 61); hubs(el, 40000, 5, 0.20, 62); LocalGraph.fromPairs(40000, el.srcs, el.dsts) }),
  )

  def byName(name: String): GraphSpec =
    all.find(_.name == name).getOrElse(sys.error(s"unknown graph $name"))
}
