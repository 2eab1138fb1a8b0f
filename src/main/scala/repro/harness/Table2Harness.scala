package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.{KCoreConfig, ParallelKCore}
import repro.engine.RunMetrics
import repro.graph.{GraphSuite, LocalGraph}
import repro.graph.GraphSuite.GraphSpec
import repro.model.CostModel
import repro.seq.SeqKCore

/** Reproduces Table 2 of the paper: per-graph statistics (n, m, kmax, ρ) and
  * the runtimes of our algorithm (sequential + parallel) against BZ,
  * Julienne, ParK and PKC.
  *
  * Two time columns are reported per parallel algorithm:
  *  - measured Spark wall-clock of the BSP engine run, and
  *  - the modeled 96-core time from the instrumented cost model (the
  *    substitute for the paper's testbed — see DESIGN.md §2).
  */
object Table2Harness {

  final case class AlgoRun(metrics: RunMetrics, modeled: CostModel.Modeled, correct: Boolean)

  final case class Row(
      spec: GraphSpec,
      n: Int, m: Long, kmax: Int, rho: Int,
      bzMillis: Double, seqMillis: Double, seqWork: Long,
      runs: Seq[(String, AlgoRun)])

  val algos: Seq[KCoreConfig] =
    Seq(KCoreConfig.ours, KCoreConfig.julienne, KCoreConfig.park, KCoreConfig.pkc)

  def runGraph(spark: SparkSession, spec: GraphSpec, nParts: Int = 16,
               verbose: Boolean = true): Row = {
    val g = spec.build()
    var t0 = System.nanoTime()
    val bzCore = SeqKCore.bz(g)
    val bzMillis = (System.nanoTime() - t0) / 1e6
    t0 = System.nanoTime()
    val seqRes = SeqKCore.framework(g)
    val seqMillis = (System.nanoTime() - t0) / 1e6
    // Sequential work in the same units as the engine's counters: one op per
    // edge traversal + per active-set scan entry.
    val seqWork = g.adj.length.toLong + (0 until g.n).map(v => 1L + bzCore(v)).sum

    val runs = runConfigs(spark, "table2", spec.name, g, bzCore, algos, nParts, verbose)
    Row(spec, g.n, g.m, seqRes.kmax, seqRes.rho, bzMillis, seqMillis, seqWork, runs)
  }

  /** Runs every config on one cached CSR build of `g` and checks each
    * coreness against `bzCore`; `verbose` logs one line per run to stderr.
    */
  def runConfigs(spark: SparkSession, tag: String, name: String, g: LocalGraph, bzCore: Array[Int],
                 cfgs: Seq[KCoreConfig], nParts: Int, verbose: Boolean): Seq[(String, AlgoRun)] = {
    val handle = ParallelKCore.prepareLocal(spark, g, nParts)
    handle.base.count() // materialize the cached CSR before timing anything
    try cfgs.map { cfg =>
      val (core, metrics) = ParallelKCore.run(handle, cfg)
      val correct = java.util.Arrays.equals(core, bzCore)
      if (verbose)
        Console.err.println(f"[$tag] $name%-5s ${cfg.name}%-11s " +
          f"wall=${metrics.wallMillis / 1000}%8.3fs subrounds=${metrics.subrounds}%6d " +
          f"work=${metrics.work}%12d correct=$correct")
      cfg.name -> AlgoRun(metrics, CostModel(metrics), correct)
    } finally handle.unpersist()
  }

  /** One untimed pass over every configuration on a small graph so JIT
    * compilation does not penalize whichever algorithm happens to run first.
    */
  def warmup(spark: SparkSession, cfgs: Seq[KCoreConfig]): Unit = {
    val el = new repro.graph.GraphGen.EdgeList
    repro.graph.GraphGen.ba(el, 3000, 5, 987)
    val g = LocalGraph.fromPairs(3000, el.srcs, el.dsts)
    runConfigs(spark, "warmup", "BA", g, SeqKCore.bz(g), cfgs, 16, verbose = false)
  }

  def run(spark: SparkSession, names: Seq[String] = GraphSuite.all.map(_.name),
          nParts: Int = 16): Seq[Row] = {
    warmup(spark, algos)
    names.map(n => runGraph(spark, GraphSuite.byName(n), nParts))
  }

  // --------------------------------------------------------------------------

  /** The full Table-2 report: measured + modeled + paper reference numbers. */
  def render(rows: Seq[Row]): String = {
    import TableFormat._
    val sb = new StringBuilder

    sb ++= "TABLE 2 — graph statistics and running times\n"
    sb ++= "(this reproduction: synthetic laptop-scale analogues; see DESIGN.md §4)\n\n"

    // --- graph statistics ---------------------------------------------------
    sb ++= renderTable(
      Seq("graph", "cat", "n", "m", "kmax", "rho", "paper.n", "paper.m", "paper.kmax", "paper.rho"),
      rows.map { r =>
        Seq(r.spec.name, r.spec.category, fmtCount(r.n), fmtCount(r.m),
          r.kmax.toString, r.rho.toString,
          r.spec.paper.n, r.spec.paper.m, r.spec.paper.kmax.toString, r.spec.paper.rho.toString)
      })
    sb ++= "\n\n"

    // --- measured wall-clock ------------------------------------------------
    sb ++= "Measured times (seconds; seq*/BZ* sequential on the driver, parallel = Spark BSP engine wall-clock):\n"
    sb ++= renderTable(
      Seq("graph", "seq*", "BZ*", "Ours", "Julienne", "ParK", "PKC", "ok"),
      rows.map { r =>
        val m = r.runs.toMap
        Seq(r.spec.name,
          fmtMillisAsSecs(r.seqMillis), fmtMillisAsSecs(r.bzMillis)) ++
          Seq("Ours", "Julienne", "ParK", "PKC").map(a => fmtMillisAsSecs(m(a).metrics.wallMillis)) :+
          (if (r.runs.forall(_._2.correct)) "yes" else "NO")
      })
    sb ++= "\n\n"

    // --- modeled 96-core times ----------------------------------------------
    sb ++= "Modeled 96-core times (cost model over exact op counts; paper times for comparison):\n"
    sb ++= renderTable(
      Seq("graph", "seq(model)", "Ours", "Julienne", "ParK", "PKC", "spd",
          "| paper:", "seq*", "par", "spd", "Julienne", "ParK", "PKC"),
      rows.map { r =>
        val m = r.runs.toMap
        val seqModel = r.seqWork * CostModel.unitNanos / 1e9
        val ours = m("Ours").modeled.tpSeconds
        Seq(r.spec.name, fmtSecs(seqModel)) ++
          Seq("Ours", "Julienne", "ParK", "PKC").map(a => fmtSecs(m(a).modeled.tpSeconds)) :+
          f"${seqModel / ours}%.1f" :+
          "|" :+ r.spec.paper.seq :+ r.spec.paper.par :+
          (try f"${r.spec.paper.seq.toDouble / r.spec.paper.par.toDouble}%.1f" catch { case _: Throwable => "—" }) :+
          r.spec.paper.julienne :+ r.spec.paper.park :+ r.spec.paper.pkc
      })
    sb ++= "\n\n"

    // --- relative-to-ours (the paper's Fig. 5 quantity, from modeled times) --
    sb ++= "Modeled time relative to Ours (↑1 means slower than ours; paper's Fig. 5 analogue):\n"
    sb ++= renderTable(
      Seq("graph", "Julienne/Ours", "ParK/Ours", "PKC/Ours"),
      rows.map { r =>
        val m = r.runs.toMap
        val ours = m("Ours").modeled.tpSeconds
        Seq(r.spec.name) ++ Seq("Julienne", "ParK", "PKC").map { a =>
          f"${m(a).modeled.tpSeconds / ours}%.2f"
        }
      })
    sb ++= "\n\n"

    // --- per-category geomeans ----------------------------------------------
    sb ++= "Per-category geomean of modeled times (seconds):\n"
    val cats = rows.map(_.spec.category).distinct
    sb ++= renderTable(
      Seq("category", "Ours", "Julienne", "ParK", "PKC"),
      cats.map { c =>
        val rs = rows.filter(_.spec.category == c)
        Seq(c) ++ Seq("Ours", "Julienne", "ParK", "PKC").map { a =>
          fmtSecs(geomean(rs.map(_.runs.toMap.apply(a).modeled.tpSeconds)))
        }
      })
    sb ++= "\n"
    sb.toString
  }
}
