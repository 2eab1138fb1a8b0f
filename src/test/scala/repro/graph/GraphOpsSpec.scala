package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.engine.Csr

/** DataFrame surface of the graph substrate, Oracle-checked against DuckDB. */
class GraphOpsSpec extends SparkSpec {

  private lazy val g = TestGraphs.random(200, 900, 5)
  private lazy val gdf = GraphOps.toDF(spark, g).cache()

  /** Per-vertex degree of a symmetric edge DataFrame. Vertices with no edges
    * are absent.
    */
  private def degrees(edges: DataFrame): DataFrame =
    edges.groupBy(col("src").as("vertex")).agg(count(lit(1)).cast("int").as("degree"))

  test("toDF row count is 2m") {
    assert(gdf.count() == g.adj.length.toLong)
  }

  test("degrees match LocalGraph degrees") {
    val d = degrees(gdf).collect().map(r => r.getInt(0) -> r.getInt(1)).toMap
    (0 until g.n).foreach { v =>
      assert(d.getOrElse(v, 0) == g.degree(v), s"vertex $v")
    }
  }

  test("degrees agree with DuckDB") {
    Oracle.assertEquivalent(
      degrees(gdf).select(col("vertex"), col("degree").cast("string").as("degree")),
      "SELECT src AS vertex, CAST(COUNT(*) AS VARCHAR) AS degree FROM edges GROUP BY src",
      "edges" -> gdf)
  }

  private lazy val raw = GraphOps.rawToDF(spark, Array(0, 1, 1, 2, 2, 0, 3, 0), Array(1, 0, 2, 1, 2, 3, 0, 1))

  /** Both directions of every raw pair, self-loops dropped. */
  private val bothDirections =
    """SELECT src, dst FROM (
      |  SELECT src, dst FROM edges UNION ALL SELECT dst AS src, src AS dst FROM edges
      |) WHERE src <> dst""".stripMargin

  test("symmetrize agrees with DuckDB") {
    // Duplicates are kept: the Oracle compares multisets.
    Oracle.assertEquivalent(GraphOps.symmetrize(raw), bothDirections, "edges" -> raw)
  }

  test("the CSR built from symmetrize holds exactly its distinct edges, per DuckDB") {
    import spark.implicits._
    val edges = Csr.buildDistributed(spark, GraphOps.symmetrize(raw), 4, 3).collect().toSeq.flatMap { p =>
      (0 until p.nOwned).flatMap(i => (p.indptr(i) until p.indptr(i + 1)).map(j => (p.lo + i, p.adj(j))))
    }
    Oracle.assertEquivalent(edges.toDF("src", "dst"), s"SELECT DISTINCT src, dst FROM ($bothDirections)",
      "edges" -> raw)
  }

  test("symmetrize of a canonical graph is idempotent") {
    // Its CSR is the canonical graph's own, partition for partition.
    val dist = Csr.buildDistributed(spark, GraphOps.symmetrize(GraphOps.toDF(spark, g)), g.n, 5).collect().sortBy(_.pid)
    val local = Csr.buildLocal(g, 5)
    assert(dist.map(p => (p.lo, p.hi, p.indptr.toSeq, p.adj.toSeq)).toSeq ==
      local.map(p => (p.lo, p.hi, p.indptr.toSeq, p.adj.toSeq)).toSeq)
  }

  test("symmetric edge set: every edge has its reverse") {
    val fwd = gdf.select(col("src"), col("dst"))
    val missing = fwd.except(fwd.select(col("dst").as("src"), col("src").as("dst")))
    assert(missing.count() == 0)
  }

  test("undirectedEdgeCount is m") {
    assert(gdf.count() / 2 == g.m)
  }

  test("frontier extraction as SQL agrees with DuckDB") {
    // Round-0 frontier: degree-0 vertices don't appear in the edge table, so
    // test the k=minDegree frontier instead via the degree view.
    val deg = degrees(gdf).cache()
    val k = deg.agg(min(col("degree"))).head.getInt(0)
    Oracle.assertEquivalent(
      deg.where(col("degree") === k).select(col("vertex")),
      s"SELECT vertex FROM deg WHERE degree = '$k'",
      "deg" -> deg.select(col("vertex"), col("degree").cast("string").as("degree")))
  }

  test("decrement histogram agrees with DuckDB (offline-peel kernel)") {
    // Histogram of neighbors of a frontier = the HISTOGRAM step of Alg. 2.
    val frontier = degrees(gdf)
      .where(col("degree") <= 4).select(col("vertex"))
    val hist = gdf.join(frontier, gdf("src") === frontier("vertex"))
      .groupBy(col("dst")).agg(count(lit(1)).cast("string").as("decrements"))
    Oracle.assertEquivalent(
      hist,
      """SELECT e.dst AS dst, CAST(COUNT(*) AS VARCHAR) AS decrements
        |FROM edges e
        |JOIN (SELECT src AS vertex FROM edges GROUP BY src HAVING COUNT(*) <= 4) f
        |  ON e.src = f.vertex
        |GROUP BY e.dst""".stripMargin,
      "edges" -> gdf)
  }

  test("coreness distribution agrees with DuckDB") {
    import spark.implicits._
    val core = repro.seq.SeqKCore.bz(g)
    val coreDf = spark.sparkContext
      .parallelize(core.indices.map(v => (v, core(v))), 4).toDF("vertex", "coreness")
    val dist = coreDf.groupBy(col("coreness")).agg(count(lit(1)).cast("string").as("cnt"))
    Oracle.assertEquivalent(
      dist,
      "SELECT coreness, CAST(COUNT(*) AS VARCHAR) AS cnt FROM core GROUP BY coreness",
      "core" -> coreDf)
  }

  test("k-core property check via DuckDB: no vertex violates its coreness") {
    import spark.implicits._
    val core = repro.seq.SeqKCore.bz(g)
    val coreDf = spark.sparkContext
      .parallelize(core.indices.map(v => (v, core(v))), 4).toDF("vertex", "coreness").cache()
    // Number of neighbors u of v with coreness(u) >= coreness(v), per v —
    // must be >= coreness(v) (necessary condition of a correct decomposition).
    val joined = gdf
      .join(coreDf.withColumnRenamed("vertex", "sv").withColumnRenamed("coreness", "sc"), col("src") === col("sv"))
      .join(coreDf.withColumnRenamed("vertex", "dv").withColumnRenamed("coreness", "dc"), col("dst") === col("dv"))
      .where(col("dc") >= col("sc"))
      .groupBy(col("src")).agg(count(lit(1)).as("supporters"))
      .join(coreDf, col("src") === col("vertex"))
      .where(col("supporters") < col("coreness"))
    assert(joined.count() == 0)
    Oracle.assertEquivalent(
      joined.select(col("src").cast("string").as("src")),
      """SELECT CAST(e.src AS VARCHAR) AS src
        |FROM edges e
        |JOIN core cs ON e.src = cs.vertex
        |JOIN core cd ON e.dst = cd.vertex
        |WHERE CAST(cd.coreness AS INT) >= CAST(cs.coreness AS INT)
        |GROUP BY e.src, cs.coreness
        |HAVING COUNT(*) < CAST(cs.coreness AS INT)""".stripMargin,
      "edges" -> gdf, "core" -> coreDf)
  }
}
