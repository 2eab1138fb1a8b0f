package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.{KCoreConfig, ParallelKCore}
import repro.graph.GraphSuite
import repro.graph.GraphSuite.GraphSpec
import repro.seq.SeqKCore

/** Reproduces Table 3 of the paper (appendix): running times of all eight
  * combinations of the three techniques — VGC, sampling, HBS — on every
  * graph, plus the normalized-to-best view (the paper's Fig. 13 heatmap).
  */
object Table3Harness {

  /** Paper column order. */
  val comboNames: Seq[String] = KCoreConfig.combos.map(_.name)

  /** Paper Table 3 raw seconds, in `comboNames` order. */
  val paperSeconds: Map[String, Seq[Double]] = Map(
    "LJ" -> Seq(.275, .220, .276, .272, .265, .200, .265, .203),
    "OK" -> Seq(.528, .540, .488, .487, .474, .510, .474, .526),
    "WB" -> Seq(.934, .831, .902, .937, .946, .913, .946, .935),
    "TW" -> Seq(7.15, 7.09, 2.71, 6.77, 2.74, 6.73, 2.74, 2.72),
    "FS" -> Seq(3.85, 3.90, 3.59, 3.86, 3.67, 3.70, 3.67, 3.67),
    "EH" -> Seq(1.25, 1.07, 1.04, 1.23, .996, 1.00, .996, .795),
    "SD" -> Seq(5.03, 5.07, 5.70, 4.96, 4.37, 4.97, 4.37, 4.39),
    "CW" -> Seq(171, 166, 36.1, 165, 38.3, 157, 38.3, 28.6),
    "HL14" -> Seq(123, 103, 78.0, 118, 65.0, 103, 65.0, 54.7),
    "HL12" -> Seq(166, 148, 143, 157, 138, 130, 138, 108.4),
    "AF" -> Seq(.372, .219, .366, .294, .288, .154, .288, .155),
    "NA" -> Seq(.946, .605, .931, .751, .739, .437, .739, .432),
    "AS" -> Seq(1.02, .674, 1.01, .818, .816, .471, .816, .480),
    "EU" -> Seq(1.39, .948, 1.40, 1.11, 1.10, .666, 1.10, .679),
    "CH5" -> Seq(.058, .033, .059, .045, .046, .021, .046, .021),
    "GL2" -> Seq(.223, .133, .224, .187, .187, .106, .187, .109),
    "GL5" -> Seq(.306, .168, .299, .253, .246, .120, .246, .125),
    "GL10" -> Seq(.380, .206, .370, .320, .319, .154, .319, .162),
    "COS5" -> Seq(4.33, 2.58, 4.38, 3.71, 3.68, 2.04, 3.68, 2.04),
    "TRCE" -> Seq(.638, .095, .628, .521, .545, .067, .545, .066),
    "BBL" -> Seq(.712, .129, .699, .616, .605, .082, .605, .077),
    "GRID" -> Seq(11.0, .718, 11.0, 8.86, 8.91, .284, 8.91, .282),
    "CUBE" -> Seq(13.2, 7.98, 13.0, 9.57, 9.38, 4.11, 9.38, 4.01),
    "HCNS" -> Seq(6.96, 5.98, 31.1, 1.56, 1.94, 1.51, 1.94, 2.01),
    "HPL" -> Seq(2.58, 2.50, 1.89, 2.52, 1.75, 2.52, 1.75, 1.77),
  )

  final case class Row(
      spec: GraphSpec,
      comboRuns: Seq[(String, Table2Harness.AlgoRun)])

  def runGraph(spark: SparkSession, spec: GraphSpec, nParts: Int = 16,
               verbose: Boolean = true): Row = {
    val g = spec.build()
    Row(spec, Table2Harness.runConfigs(spark, "table3", spec.name, g, SeqKCore.bz(g), KCoreConfig.combos, nParts, verbose))
  }

  def run(spark: SparkSession, names: Seq[String] = GraphSuite.all.map(_.name),
          nParts: Int = 16): Seq[Row] = {
    Table2Harness.warmup(spark, KCoreConfig.combos)
    names.map(n => runGraph(spark, GraphSuite.byName(n), nParts))
  }

  // --------------------------------------------------------------------------

  def render(rows: Seq[Row]): String = {
    import TableFormat._
    val sb = new StringBuilder
    sb ++= "TABLE 3 — all combinations of VGC, sampling, and HBS\n\n"

    sb ++= "Modeled 96-core times (seconds):\n"
    sb ++= renderTable(
      "graph" +: comboNames,
      rows.map { r =>
        val m = r.comboRuns.toMap
        r.spec.name +: comboNames.map(c => fmtSecs(m(c).modeled.tpSeconds))
      })
    sb ++= "\n\n"

    sb ++= "Normalized to the per-graph minimum (the paper's Fig. 13 heatmap view):\n"
    sb ++= renderTable(
      "graph" +: comboNames :+ "ok",
      rows.map { r =>
        val m = r.comboRuns.toMap
        val ts = comboNames.map(c => m(c).modeled.tpSeconds)
        val best = ts.min
        r.spec.name +: ts.map(t => f"${t / best}%.2f") :+
          (if (r.comboRuns.forall(_._2.correct)) "yes" else "NO")
      })
    sb ++= "\n\n"

    sb ++= "Paper Table 3 normalized to its per-graph minimum (reference shape):\n"
    sb ++= renderTable(
      "graph" +: comboNames,
      rows.map { r =>
        paperSeconds.get(r.spec.name) match {
          case Some(ps) =>
            val best = ps.min
            r.spec.name +: ps.map(t => f"${t / best}%.2f")
          case None => r.spec.name +: comboNames.map(_ => "—")
        }
      })
    sb ++= "\n\n"

    sb ++= "Measured Spark wall-clock (seconds):\n"
    sb ++= renderTable(
      "graph" +: comboNames,
      rows.map { r =>
        val m = r.comboRuns.toMap
        r.spec.name +: comboNames.map(c => fmtMillisAsSecs(m(c).metrics.wallMillis))
      })
    sb ++= "\n\n"

    sb ++= "Subrounds (rho' — the burdened-span driver; VGC columns should be far smaller):\n"
    sb ++= renderTable(
      "graph" +: comboNames,
      rows.map { r =>
        val m = r.comboRuns.toMap
        r.spec.name +: comboNames.map(c => m(c).metrics.subroundsNonEmpty.toString)
      })
    sb ++= "\n"
    sb.toString
  }
}
