package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** DataFrame surface of the graph substrate.
  *
  * The canonical graph lives in [[LocalGraph]]; these helpers expose it to
  * Spark SQL and implement the narrow half of canonicalization (both
  * directions, no self-loops) as Catalyst operations, so it can be
  * Oracle-checked against DuckDB.
  */
object GraphOps {

  /** The canonical CSR as an edge DataFrame with both directions present. */
  def toDF(spark: SparkSession, g: LocalGraph): DataFrame = {
    val rows = new Array[(Int, Int)](g.adj.length)
    var v = 0
    var i = 0
    while (v < g.n) {
      val end = g.indptr(v + 1)
      while (i < end) { rows(i) = (v, g.adj(i)); i += 1 }
      v += 1
    }
    import spark.implicits._
    spark.sparkContext.parallelize(rows.toIndexedSeq, math.min(64, math.max(1, rows.length / 20000 + 1)))
      .toDF("src", "dst")
  }

  /** Raw directed pairs as a DataFrame (pre-canonicalization). */
  def rawToDF(spark: SparkSession, srcs: Array[Int], dsts: Array[Int]): DataFrame = {
    import spark.implicits._
    spark.sparkContext.parallelize(srcs.indices.map(i => (srcs(i), dsts(i))), 16)
      .toDF("src", "dst")
  }

  /** Both directions of every raw pair, self-loops dropped, duplicates kept.
    *
    * One narrow scan: it keeps the input's partitions and adds no shuffle.
    * Its distinct rows are [[LocalGraph.fromPairs]]'s edge set; the
    * distributed CSR build ([[repro.engine.Csr.buildDistributed]]) drops the
    * duplicates in the sort it runs anyway.
    */
  def symmetrize(edges: DataFrame): DataFrame =
    edges
      .where(col("src") =!= col("dst"))
      .select(explode(array(
        struct(col("src"), col("dst")),
        struct(col("dst").as("src"), col("src").as("dst")))).as("e"))
      .select(col("e.src").as("src"), col("e.dst").as("dst"))
}
