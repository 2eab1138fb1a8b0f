package repro.engine

import org.apache.spark.sql.SparkSession
import repro.TestGraphs
import repro.core.{KCoreConfig, ParallelKCore}
import repro.sampling.SamplingParams

/** Runs one decomposition without a fault, then one with each
  * [[SparkExchange.Fault]], on `local[4,3]`: up to 3 attempts per task, so
  * Spark retries the task that failed. Prints one line per run:
  * `fault-run <label> fired=<bool> core=<coreness> <RunMetrics without wall time>`.
  *
  * `EngineSpec` starts it in a child JVM, since the shared test session's
  * `local[*]` fails a job at its first task failure.
  */
object FaultInjectionMain {
  val Graph = TestGraphs.hubby(1500, 3, 0.3, 6)
  val Cfg = KCoreConfig.ours.copy(sampling = Some(SamplingParams(threshold = 100)))
  /** Two partitions per task: a failed task leaves its second state behind the first. */
  val NParts = 8
  /** Partition 0 (the hubs) applies 681 inbound decrements and peels 3 vertices here
    * (round k = 5; the first round is k = 4, the least degree).
    */
  val Sub = 5

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder.master("local[4,3]").appName("fault-injection").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val h = ParallelKCore.prepareLocal(spark, Graph, NParts)
    val faults = Seq("none" -> null, "before" -> SparkExchange.Fault(Sub, afterAdvance = false),
      "after" -> SparkExchange.Fault(Sub, afterAdvance = true))
    try for ((label, f) <- faults) {
      SparkExchange.fault.set(f)
      val (core, m) = ParallelKCore.run(h, Cfg)
      val fired = f != null && SparkExchange.fault.getAndSet(null) == null
      println(s"fault-run $label fired=$fired core=${core.mkString(",")} ${m.copy(wallMillis = 0)}")
    } finally spark.stop()
  }
}
