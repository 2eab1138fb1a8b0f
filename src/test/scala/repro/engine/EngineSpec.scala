package repro.engine

import java.io.File
import java.lang.management.ManagementFactory
import java.nio.file.Files
import java.util.concurrent.TimeUnit
import org.apache.logging.log4j.Level
import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.{LoggerConfig, Property}
import org.apache.spark.SparkException
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import repro.{SparkSpec, TestGraphs}
import repro.core._
import repro.graph.{GraphGen, GraphSuite, LocalGraph}
import repro.sampling.SamplingParams
import repro.seq.SeqKCore
import scala.jdk.CollectionConverters._

/** End-to-end correctness of the BSP peeling engine: every configuration
  * must reproduce BZ's coreness exactly, on every test graph.
  *
  * `check` runs the peel loop on the in-thread `LocalExchange`, with no
  * Spark job; `checkSpark` runs it through `ParallelKCore` on the Spark
  * exchange. Both must give the same pinned counters.
  */
class EngineSpec extends SparkSpec {

  private def check(g: LocalGraph, cfg: KCoreConfig, nParts: Int = 4): RunMetrics = {
    val (core, metrics, _) = LocalExchange.run(g, nParts, cfg)
    assert(core.toSeq == SeqKCore.bz(g).toSeq, s"${cfg.name} wrong coreness")
    metrics
  }

  /** `tasks`: the Spark tasks hosting the partitions; derived when None. */
  private def checkSpark(g: LocalGraph, cfg: KCoreConfig, nParts: Int = 4,
                         tasks: Option[Int] = None): RunMetrics = {
    val handle = ParallelKCore.prepareLocal(spark, g, nParts)
    try {
      val (core, metrics) = tasks.fold(ParallelKCore.run(handle, cfg))(runHosted(handle, cfg, _))
      val expected = SeqKCore.bz(g)
      assert(core.toSeq == expected.toSeq, s"${cfg.name} wrong coreness")
      metrics
    } finally handle.unpersist()
  }

  /** `ParallelKCore.run` with the hosting task count chosen by the test. */
  private def runHosted(h: GraphHandle, cfg: KCoreConfig, tasks: Int): (Array[Int], RunMetrics) =
    PeelEngine.run(h.n, cfg, new SparkExchange(h.base.coalesce(tasks), _))

  private val graphs: Seq[(String, LocalGraph)] = Seq(
    "figure1" -> TestGraphs.figure1,
    "random-sparse" -> TestGraphs.random(300, 700, 1),
    "random-dense" -> TestGraphs.random(200, 3000, 2),
    "grid-16x16" -> TestGraphs.grid(16, 16),
    "clique-20" -> TestGraphs.clique(20),
    "path-50" -> TestGraphs.path(50),
    "caterpillar" -> TestGraphs.smallCaterpillar,
    "hcns-25" -> TestGraphs.smallHcns(25, 60),
  )

  private val presets = Seq(
    KCoreConfig.plain, KCoreConfig.ours, KCoreConfig.julienne,
    KCoreConfig.park, KCoreConfig.pkc)

  /** `RunMetrics` without the wall time. The kernel is deterministic, so
    * this string fingerprints the engine's behaviour: a refactor must leave
    * every counter bit-identical.
    */
  private def fingerprint(m: RunMetrics): String = m.copy(wallMillis = 0).toString

  private val expectedFingerprints: Map[(String, String), String] = Map(
    ("Plain", "caterpillar") -> "RunMetrics(Plain,0.0,2,24,22,1002,288,558,0,16,0,105,16,1,515,0,0)",
    ("Plain", "clique-20") -> "RunMetrics(Plain,0.0,1,2,1,740,380,40,0,300,0,0,300,15,980,0,0)",
    ("Plain", "figure1") -> "RunMetrics(Plain,0.0,4,9,6,130,26,71,0,20,0,0,20,2,468,0,0)",
    ("Plain", "grid-16x16") -> "RunMetrics(Plain,0.0,1,16,15,2204,960,892,0,96,0,416,96,1,839,0,0)",
    ("Plain", "hcns-25") -> "RunMetrics(Plain,0.0,25,49,25,4499,1370,2140,0,604,0,1,604,24,3382,0,0)",
    ("Plain", "path-50") -> "RunMetrics(Plain,0.0,1,26,25,327,98,173,0,6,0,46,6,1,327,0,0)",
    ("Plain", "random-dense") -> "RunMetrics(Plain,0.0,4,23,19,12169,5512,2309,0,4108,0,476,4108,18,5017,0,0)",
    ("Plain", "random-sparse") -> "RunMetrics(Plain,0.0,4,18,15,5197,1386,2473,0,1038,0,146,1038,3,2149,0,0)",
    ("Ours", "caterpillar") -> "RunMetrics(Ours,0.0,2,5,3,1002,288,558,0,16,0,105,16,2,365,0,0)",
    ("Ours", "clique-20") -> "RunMetrics(Ours,0.0,1,2,1,800,380,100,0,300,0,0,300,15,980,0,0)",
    ("Ours", "figure1") -> "RunMetrics(Ours,0.0,4,9,6,130,26,71,0,20,0,0,20,2,468,0,0)",
    ("Ours", "grid-16x16") -> "RunMetrics(Ours,0.0,1,3,2,2204,960,892,0,96,0,416,96,1,729,0,0)",
    ("Ours", "hcns-25") -> "RunMetrics(Ours,0.0,25,49,25,4557,1370,2198,0,604,0,1,604,24,3382,0,0)",
    ("Ours", "path-50") -> "RunMetrics(Ours,0.0,1,3,2,327,98,173,0,6,0,46,6,1,205,0,0)",
    ("Ours", "random-dense") -> "RunMetrics(Ours,0.0,4,20,16,14424,5512,4575,0,4108,0,514,4108,22,4492,0,0)",
    ("Ours", "random-sparse") -> "RunMetrics(Ours,0.0,4,15,12,5197,1386,2473,0,1038,0,156,1038,4,1903,0,0)",
    ("Julienne", "caterpillar") -> "RunMetrics(Julienne,0.0,2,24,22,2190,288,920,288,266,0,0,288,2,1539,0,0)",
    ("Julienne", "clique-20") -> "RunMetrics(Julienne,0.0,1,2,1,1340,380,100,380,80,0,0,380,19,1236,0,0)",
    ("Julienne", "figure1") -> "RunMetrics(Julienne,0.0,4,9,6,196,26,84,26,21,0,0,26,3,532,0,0)",
    ("Julienne", "grid-16x16") -> "RunMetrics(Julienne,0.0,1,16,15,5602,960,1842,960,624,0,0,960,2,1928,0,0)",
    ("Julienne", "hcns-25") -> "RunMetrics(Julienne,0.0,25,50,25,7114,1370,2203,1370,416,0,0,1370,25,3574,0,0)",
    ("Julienne", "path-50") -> "RunMetrics(Julienne,0.0,1,26,25,790,98,348,98,98,0,0,98,1,1674,0,0)",
    ("Julienne", "random-dense") -> "RunMetrics(Julienne,0.0,4,23,19,23262,5512,3402,5512,3084,0,0,5512,21,5733,0,0)",
    ("Julienne", "random-sparse") -> "RunMetrics(Julienne,0.0,4,18,15,8306,1386,2556,1386,1292,0,0,1386,4,2535,0,0)",
    ("ParK", "caterpillar") -> "RunMetrics(ParK,0.0,3,25,22,864,288,420,0,16,0,105,16,1,515,0,0)",
    ("ParK", "clique-20") -> "RunMetrics(ParK,0.0,20,21,1,1100,380,400,0,300,0,0,300,15,980,0,0)",
    ("ParK", "figure1") -> "RunMetrics(ParK,0.0,4,9,6,101,26,44,0,20,0,0,20,2,468,0,0)",
    ("ParK", "grid-16x16") -> "RunMetrics(ParK,0.0,3,18,15,2080,960,768,0,96,0,416,96,1,839,0,0)",
    ("ParK", "hcns-25") -> "RunMetrics(ParK,0.0,26,50,25,4944,1370,2860,0,604,0,1,604,24,3382,0,0)",
    ("ParK", "path-50") -> "RunMetrics(ParK,0.0,2,27,25,254,98,100,0,6,0,46,6,1,327,0,0)",
    ("ParK", "random-dense") -> "RunMetrics(ParK,0.0,21,40,19,14020,5512,4200,0,4108,0,476,4108,18,5017,0,0)",
    ("ParK", "random-sparse") -> "RunMetrics(ParK,0.0,4,18,15,3924,1386,1200,0,1038,0,146,1038,3,2149,0,0)",
    ("PKC", "caterpillar") -> "RunMetrics(PKC,0.0,3,6,3,864,288,420,0,16,0,105,16,2,365,0,0)",
    ("PKC", "clique-20") -> "RunMetrics(PKC,0.0,20,21,1,1100,380,400,0,300,0,0,300,15,980,0,0)",
    ("PKC", "figure1") -> "RunMetrics(PKC,0.0,4,9,6,101,26,44,0,20,0,0,20,2,468,0,0)",
    ("PKC", "grid-16x16") -> "RunMetrics(PKC,0.0,3,5,2,2080,960,768,0,96,0,416,96,1,729,0,0)",
    ("PKC", "hcns-25") -> "RunMetrics(PKC,0.0,26,50,25,4944,1370,2860,0,604,0,1,604,24,3382,0,0)",
    ("PKC", "path-50") -> "RunMetrics(PKC,0.0,2,4,2,254,98,100,0,6,0,46,6,1,205,0,0)",
    ("PKC", "random-dense") -> "RunMetrics(PKC,0.0,21,37,16,14020,5512,4200,0,4108,0,514,4108,22,4492,0,0)",
    ("PKC", "random-sparse") -> "RunMetrics(PKC,0.0,4,15,12,3924,1386,1200,0,1038,0,156,1038,4,1903,0,0)",
  )

  // 5 presets × 8 graphs
  for ((gname, g) <- graphs; cfg <- presets) {
    test(s"${cfg.name} == BZ on $gname") {
      assert(fingerprint(check(g, cfg)) == expectedFingerprints((cfg.name, gname)))
    }
  }

  // The four Table-2 algorithms on Spark, against the same literals.
  for (gname <- Seq("random-dense", "caterpillar"); cfg <- presets.filter(_.name != "Plain")) {
    test(s"${cfg.name} == BZ on $gname (Spark)") {
      val m = checkSpark(graphs.toMap.apply(gname), cfg)
      assert(fingerprint(m) == expectedFingerprints((cfg.name, gname)))
    }
  }

  private val expectedComboFingerprints: Map[(String, String), String] = Map(
    ("Plain", "random-dense") -> "RunMetrics(Plain,0.0,4,23,19,12169,5512,2309,0,4108,0,476,4108,18,5017,0,0)",
    ("Plain", "caterpillar") -> "RunMetrics(Plain,0.0,2,24,22,1002,288,558,0,16,0,105,16,1,515,0,0)",
    ("HBS", "random-dense") -> "RunMetrics(HBS,0.0,4,23,19,14436,5512,4576,0,4108,0,476,4108,18,5017,0,0)",
    ("HBS", "caterpillar") -> "RunMetrics(HBS,0.0,2,24,22,1002,288,558,0,16,0,105,16,1,515,0,0)",
    ("Sample", "random-dense") -> "RunMetrics(Sample,0.0,4,23,19,12169,5512,2309,0,4108,0,476,4108,18,5017,0,0)",
    ("Sample", "caterpillar") -> "RunMetrics(Sample,0.0,2,24,22,1002,288,558,0,16,0,105,16,1,515,0,0)",
    ("Sample+HBS", "random-dense") -> "RunMetrics(Sample+HBS,0.0,4,23,19,14436,5512,4576,0,4108,0,476,4108,18,5017,0,0)",
    ("Sample+HBS", "caterpillar") -> "RunMetrics(Sample+HBS,0.0,2,24,22,1002,288,558,0,16,0,105,16,1,515,0,0)",
    ("VGC", "random-dense") -> "RunMetrics(VGC,0.0,4,20,16,12113,5512,2264,0,4108,0,514,4108,22,4492,0,0)",
    ("VGC", "caterpillar") -> "RunMetrics(VGC,0.0,2,5,3,1002,288,558,0,16,0,105,16,2,365,0,0)",
    ("VGC+HBS", "random-dense") -> "RunMetrics(VGC+HBS,0.0,4,20,16,14424,5512,4575,0,4108,0,514,4108,22,4492,0,0)",
    ("VGC+HBS", "caterpillar") -> "RunMetrics(VGC+HBS,0.0,2,5,3,1002,288,558,0,16,0,105,16,2,365,0,0)",
    ("VGC+Sample", "random-dense") -> "RunMetrics(VGC+Sample,0.0,4,20,16,12113,5512,2264,0,4108,0,514,4108,22,4492,0,0)",
    ("VGC+Sample", "caterpillar") -> "RunMetrics(VGC+Sample,0.0,2,5,3,1002,288,558,0,16,0,105,16,2,365,0,0)",
    ("All", "random-dense") -> "RunMetrics(All,0.0,4,20,16,14424,5512,4575,0,4108,0,514,4108,22,4492,0,0)",
    ("All", "caterpillar") -> "RunMetrics(All,0.0,2,5,3,1002,288,558,0,16,0,105,16,2,365,0,0)",
  )

  // All 8 technique combos on two representative graphs, in-thread and on Spark.
  for (cfg <- KCoreConfig.combos; gname <- Seq("random-dense", "caterpillar")) {
    test(s"combo ${cfg.name} == BZ on $gname") {
      val g = graphs.toMap.apply(gname)
      assert(fingerprint(check(g, cfg)) == expectedComboFingerprints((cfg.name, gname)))
      assert(fingerprint(checkSpark(g, cfg)) == expectedComboFingerprints((cfg.name, gname)))
    }
  }

  private val expectedHubFingerprints: Map[(String, Int), String] = Map(
    ("Sample", 4) -> "RunMetrics(Sample,0.0,3,58,55,39437,14186,13544,0,8599,224,1907,8805,23,11563,3,0)",
    ("Sample", 7) -> "RunMetrics(Sample,0.0,3,58,55,40994,14186,13397,0,10283,233,1186,10509,21,13036,3,0)",
    ("VGC+Sample", 4) -> "RunMetrics(VGC+Sample,0.0,3,34,31,36025,14186,10157,0,8582,227,1885,8792,26,10083,3,0)",
    ("VGC+Sample", 7) -> "RunMetrics(VGC+Sample,0.0,3,44,41,40486,14186,12904,0,10256,240,1225,10491,27,12246,3,0)",
  )

  // The sampling combos on a hub graph where sample mode engages without a
  // restart, so the pinned counters cover hits and the sampler directory.
  // At nParts 7 the partitions are also hosted by 1 and 3 tasks (7 = 3 + 2 + 2),
  // which must not move a counter.
  for (cfg <- KCoreConfig.combos.filter(c => c.name == "Sample" || c.name == "VGC+Sample"); nParts <- Seq(4, 7)) {
    test(s"combo ${cfg.name} samples on hubby at nParts $nParts") {
      val hosting = if (nParts == 7) Seq(None, Some(1), Some(3)) else Seq(None)
      for (tasks <- hosting) {
        val m = checkSpark(TestGraphs.hubby(1500, 3, 0.3, 6),
          cfg.copy(sampling = Some(SamplingParams(threshold = 100))), nParts, tasks)
        assert(m.restarts == 0, s"tasks $tasks")
        assert(m.maxSampled > 0, s"tasks $tasks")
        assert(fingerprint(m) == expectedHubFingerprints((cfg.name, nParts)), s"tasks $tasks")
      }
    }
  }

  /** Subrounds of the non-sampling bucket configs when every round advanced
    * k by one, before rounds started at the least key still in use (same
    * graphs, nParts 4). ρ′ is the same with and without the skip.
    */
  private val subroundsVisitingEveryKey: Map[String, Map[String, Int]] = {
    val graphNames = Seq("figure1", "random-sparse", "random-dense", "grid-16x16", "clique-20", "path-50",
      "caterpillar", "hcns-25", "hubby")
    Map(
      "Plain" -> Seq(9, 18, 40, 18, 21, 27, 25, 50, 62),
      "HBS" -> Seq(9, 18, 40, 18, 21, 27, 25, 50, 62),
      "VGC" -> Seq(9, 15, 37, 5, 21, 4, 6, 50, 38),
      "VGC+HBS" -> Seq(9, 15, 37, 5, 21, 4, 6, 50, 38),
      "Julienne" -> Seq(9, 18, 40, 18, 21, 27, 25, 51, 62),
    ).map { case (cfg, subs) => cfg -> graphNames.zip(subs).toMap }
  }

  // A round is skipped iff no vertex has its key as coreness: each skipped
  // round cost exactly one subround.
  for (cfg <- KCoreConfig.combos.filter(_.sampling.isEmpty) :+ KCoreConfig.julienne) {
    test(s"${cfg.name} skips exactly the empty rounds") {
      for ((gname, g) <- graphs :+ ("hubby" -> TestGraphs.hubby(1500, 3, 0.3, 6))) {
        val bz = SeqKCore.bz(g)
        val used = bz.distinct.length
        val m = check(g, cfg)
        assert(m.rounds == used, gname)
        assert(m.subrounds == subroundsVisitingEveryKey(cfg.name)(gname) - (bz.max + 1 - used), gname)
      }
    }
  }

  test("nParts = 1 degenerates gracefully") {
    checkSpark(TestGraphs.random(100, 500, 3), KCoreConfig.ours, nParts = 1)
  }

  test("nParts larger than needed still works") {
    checkSpark(TestGraphs.random(40, 120, 4), KCoreConfig.ours, nParts = 16)
  }

  test("isolated vertices get coreness 0") {
    val g = TestGraphs.fromEdgeSeq(10, Seq((0, 1), (2, 3)))
    checkSpark(g, KCoreConfig.ours)
  }

  test("deterministic across runs (same seed)") {
    val g = TestGraphs.random(200, 1500, 5)
    val h = ParallelKCore.prepareLocal(spark, g, 4)
    val persisted = spark.sparkContext.getPersistentRDDs.size
    try {
      val (c1, m1) = ParallelKCore.run(h, KCoreConfig.ours)
      assert(spark.sparkContext.getPersistentRDDs.size == persisted, "the run left an RDD cached")
      for (tasks <- Seq(1, 2, 4)) {
        val (c, m) = runHosted(h, KCoreConfig.ours, tasks)
        assert(c.toSeq == c1.toSeq, s"tasks $tasks")
        assert(fingerprint(m) == fingerprint(m1), s"tasks $tasks")
        assert(spark.sparkContext.getPersistentRDDs.size == persisted, s"tasks $tasks: the run left an RDD cached")
      }
    } finally h.unpersist()
  }

  private def render(st: PartitionState): String =
    Seq(st.deg.toSeq, st.core.toSeq, st.peeled.toSeq, st.mode.toSeq, st.cnt.toSeq, st.rateArr.toSeq,
      st.frontier.toSeq, st.pendingRecount.toSeq, st.sampledOwned.toSeq, new java.util.TreeMap(st.dir),
      st.strategy.ops, st.peeledOwnedCount).mkString(" ")

  private def render(o: SubroundOut): String =
    Seq(o.pid, o.decs.toSeq, Option(o.decCounts).map(_.toSeq), o.hits.toSeq, o.newlyPeeled.toSeq,
      o.dirV.toSeq, o.dirRate.toSeq, o.counters, o.error).mkString(" ")

  test("a re-executed step returns its recorded outputs; a step out of order fails") {
    val g = TestGraphs.hubby(1500, 3, 0.3, 6)
    val cfg = KCoreConfig.ours.copy(sampling = Some(SamplingParams(threshold = 100)))
    val h = ParallelKCore.prepareLocal(spark, g, 4)
    val ex = new SparkExchange(h.base.coalesce(math.min(4, spark.sparkContext.defaultParallelism)), cfg)
    val local = new LocalExchange(Csr.buildLocal(g, 4), cfg)
    try {
      val initOuts = ex.init()
      assert(initOuts.exists(_.dirV.nonEmpty), "expected sampled hubs")
      assert(initOuts.toSeq.map(render) == local.init().toSeq.map(render))
      // Round k = min degree, so the step peels vertices.
      val k = (0 until g.n).map(g.degree).min
      val in = SubroundIn(k, roundStart = true, 0, initOuts)
      // The second call is the step's task run again on the advanced states.
      val first = ex.step(in)
      val second = ex.step(in)
      assert(first.exists(_.newlyPeeled.nonEmpty), "the step peeled nothing")
      assert(first.toSeq.map(render) == second.toSeq.map(render), "the re-executed step gave other outputs")
      assert(first.toSeq.map(render) == local.step(in).toSeq.map(render), "outputs differ from LocalExchange's")
      val states = ex.states.collect().sortBy(_.g.pid).toSeq.map(render)
      assert(states == local.states.toSeq.map(render), "the states differ from LocalExchange's after one step")
      val skip = intercept[SparkException](ex.step(in.copy(roundStart = false, subroundIndex = 5)))
      assert("partition \\d+: state at step 1, expected step 5".r.findFirstIn(skip.getMessage).nonEmpty, skip.getMessage)
    } finally {
      ex.release()
      h.unpersist()
    }
  }

  test("LocalExchange steps through the same guard: a re-executed step returns its recorded outputs; a step out of order fails") {
    val g = TestGraphs.hubby(1500, 3, 0.3, 6)
    val cfg = KCoreConfig.ours.copy(sampling = Some(SamplingParams(threshold = 100)))
    val local = new LocalExchange(Csr.buildLocal(g, 4), cfg)
    val in = SubroundIn((0 until g.n).map(g.degree).min, roundStart = true, 0, local.init())
    val first = local.step(in)
    assert(first.exists(_.newlyPeeled.nonEmpty), "the step peeled nothing")
    assert(first.toSeq.map(render) == local.step(in).toSeq.map(render), "the re-executed step gave other outputs")
    val skip = intercept[IllegalStateException](local.step(in.copy(roundStart = false, subroundIndex = 5)))
    assert(skip.getMessage == "partition 0: state at step 1, expected step 5", skip.getMessage)
  }

  test("a state read back from Java serialisation steps as the original does") {
    // The Spark exchange's cached block may spill to disk (MEMORY_AND_DISK),
    // so the fields a state builds in its constructor must survive a copy.
    val g = TestGraphs.hubby(1500, 3, 0.3, 6)
    val cfg = KCoreConfig.ours.copy(sampling = Some(SamplingParams(threshold = 100)))
    val local = new LocalExchange(Csr.buildLocal(g, 4), cfg)
    val initOuts = local.init()
    assert(initOuts.exists(_.dirV.nonEmpty), "expected sampled hubs")
    val k = initOuts.map(_.counters.leastKey).min
    val outs = local.step(SubroundIn(k, roundStart = true, 0, initOuts))
    val copies = local.states.map { st =>
      val bytes = new java.io.ByteArrayOutputStream
      val oos = new java.io.ObjectOutputStream(bytes)
      oos.writeObject(st)
      oos.close()
      new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray)).readObject()
        .asInstanceOf[PartitionState]
    }
    assert(copies.toSeq.map(render) == local.states.toSeq.map(render), "the copies differ before the step")
    // The input the peel loop builds for the next subround.
    val least = outs.map(_.counters.leastKey).min
    val next = SubroundIn(if (least >= 0) math.max(k + 1, least) else k, least >= 0, 1, outs)
    val fromOriginal = local.states.map(_.advance(next))
    val fromCopy = copies.map(_.advance(next))
    assert(fromOriginal.exists(o => o.newlyPeeled.nonEmpty || o.decs.nonEmpty), "the step did nothing")
    assert(fromCopy.toSeq.map(render) == fromOriginal.toSeq.map(render), "the copies gave other outputs")
    assert(copies.toSeq.map(render) == local.states.toSeq.map(render), "the copies differ after the step")
  }

  test("a task that fails once, before or after its state advances, is retried to the failure-free result") {
    // A child JVM with this JVM's classpath and options (its own, smaller
    // heap) runs FaultInjectionMain on local[4,3], where Spark retries a task.
    val javaBin = s"${System.getProperty("java.home")}/bin/java"
    val opts = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filterNot(_.startsWith("-Xmx")).toSeq
    val cmd = (javaBin +: opts) ++ Seq("-Xmx1g", "-cp", System.getProperty("java.class.path"),
      FaultInjectionMain.getClass.getName.stripSuffix("$"))
    val out = File.createTempFile("fault-injection", ".out")
    val err = File.createTempFile("fault-injection", ".err")
    val child = new ProcessBuilder(cmd.asJava).redirectOutput(out).redirectError(err).start()
    try {
      val finished = child.waitFor(300, TimeUnit.SECONDS)
      def errTail = Files.readAllLines(err.toPath).asScala.takeRight(40).mkString("\n")
      assert(finished, "the child JVM did not finish in 300 s")
      assert(child.exitValue == 0, errTail)
      val Run = "fault-run (\\w+) fired=(\\w+) core=(\\S*) (.*)".r
      val runs = Files.readAllLines(out.toPath).asScala.collect {
        case Run(label, fired, core, fp) => label -> (fired.toBoolean, core, fp)
      }.toMap
      assert(runs.keySet == Set("none", "before", "after"), errTail)
      val bz = SeqKCore.bz(FaultInjectionMain.Graph).mkString(",")
      val (_, clean, cleanFp) = runs("none")
      assert(clean == bz, "coreness without a fault")
      for (label <- Seq("before", "after")) {
        val (fired, core, fp) = runs(label)
        assert(fired, s"$label: the fault did not fire")
        assert(core == clean, s"$label: coreness")
        assert(fp == cleanFp, s"$label: counters")
      }
    } finally {
      child.destroyForcibly().waitFor()
      out.delete(); err.delete()
    }
  }

  test("engine jobs are labelled with algorithm, k and subround; the caller's description is restored") {
    val sc = spark.sparkContext
    val group = "engine-job-labels"
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[(Int, String)]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties != null && e.properties.getProperty("spark.jobGroup.id") == group)
          seen.add((e.jobId, e.properties.getProperty("spark.job.description")))
    }
    val h = ParallelKCore.prepareLocal(spark, TestGraphs.grid(8, 8), 4)
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "caller", interruptOnCancel = false)
      val (_, m) = ParallelKCore.run(h, KCoreConfig.julienne)
      assert(sc.getLocalProperty("spark.job.description") == "caller")
      // Listener events arrive asynchronously.
      val deadline = System.currentTimeMillis() + 10000
      while (seen.size < m.subrounds + 2 && System.currentTimeMillis() < deadline) Thread.sleep(10)
      val labels = seen.toArray(Array.empty[(Int, String)]).sortBy(_._1).map(_._2).toSeq
      assert(labels.length == m.subrounds + 2, labels)
      assert(labels.head == "kcore Julienne init")
      assert(labels.last == "kcore Julienne gather")
      val Sub = "kcore Julienne k=(\\d+) sub=(\\d+)".r
      val ks = labels.slice(1, labels.length - 1).zipWithIndex.map {
        case (Sub(k, s), i) if s.toInt == i => k.toInt
        case (l, i) => fail(s"subround $i labelled '$l'")
      }
      // One round per key still in use: the grid's vertices all have coreness 2.
      val bz = SeqKCore.bz(TestGraphs.grid(8, 8)).distinct.sorted.toSeq
      assert(ks == ks.sorted && ks.distinct == bz && m.rounds == bz.length, ks)

      sc.clearJobGroup()
      ParallelKCore.run(h, KCoreConfig.julienne)
      assert(sc.getLocalProperty("spark.job.description") == null)
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
      h.unpersist()
    }
  }

  test("a decomposition on the Spark exchange gives Spark's closure cleaner no closure") {
    // The cleaner logs each function it gets at DEBUG: "Expected a closure;
    // got <class>" for a named class, which it returns at once, and
    // "Cleaning ... closure" for a lambda, whose defining class file it reads
    // and parses (RDD.collect hands it two: one from RDD, one from SparkContext).
    val name = "org.apache.spark.util.ClosureCleaner"
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val appender = new AbstractAppender("closure-cleaner-events", null, null, true, Property.EMPTY_ARRAY) {
      override def append(e: LogEvent): Unit = seen.add(e.getMessage.getFormattedMessage)
    }
    // First, as starting the session may replace the logging configuration.
    val h = ParallelKCore.prepareLocal(spark, TestGraphs.grid(8, 8), 4)
    val ctx = LoggerContext.getContext(false)
    val config = ctx.getConfiguration
    val prior = Option(config.getLoggers.get(name))
    val capture = new LoggerConfig(name, Level.DEBUG, false)
    capture.addAppender(appender, Level.DEBUG, null)
    appender.start()
    config.removeLogger(name)
    config.addLogger(name, capture)
    ctx.updateLoggers()
    try ParallelKCore.run(h, KCoreConfig.julienne)
    finally {
      config.removeLogger(name)
      prior.foreach(config.addLogger(name, _))
      ctx.updateLoggers()
      appender.stop()
      h.unpersist()
    }
    val events = seen.toArray(Array.empty[String]).toSeq
    assert(events.nonEmpty, "no ClosureCleaner event captured")
    val cleaned = events.filterNot(_.startsWith("Expected a closure"))
    assert(cleaned.isEmpty, cleaned.mkString("\n"))
  }

  // ---- sampling-specific behaviour ----------------------------------------

  private def lowThreshold = SamplingParams(threshold = 48)

  test("sampling triggers on a hub graph and stays correct") {
    val g = TestGraphs.hubby(1500, 3, 0.3, 6)
    val cfg = KCoreConfig.ours.copy(sampling = Some(lowThreshold))
    val m = check(g, cfg)
    assert(m.maxSampled > 0, "expected sample mode to engage")
    assert(m.restarts == 0)
    assert(fingerprint(m) ==
      "RunMetrics(Ours,0.0,3,34,31,36979,14186,10157,0,8182,761,1648,8800,27,10686,15,0)")
  }

  test("a vertex in sample mode bounds the jump to the next round") {
    // On these graphs a jump to the least degree out of sample mode would pass
    // the first round whose validation some sampled vertex fails; its recount
    // would then find a degree below k, and the run would restart.
    val cfg = KCoreConfig.plain.copy(name = "Sample", sampling = Some(SamplingParams(threshold = 16)))
    for (g <- Seq(TestGraphs.hubby(600, 1, 0.3, 0), TestGraphs.hubby(600, 3, 0.3, 1))) {
      val m = check(g, cfg)
      assert(m.maxSampled > 0 && m.restarts == 0, m.toString)
    }
  }

  test("a vertex that re-enters sample mode and exits in one subround leaves every directory") {
    // The hub's recount puts it back into sample mode and its own peeled
    // leaves push it out again in the same subround. A stale directory entry
    // would keep the cycle's partition sending hits the hub drops.
    val m = checkSpark(TestGraphs.hubWithRemoteCycle,
      KCoreConfig.plain.copy(sampling = Some(SamplingParams(threshold = 48, r = 0.5))), nParts = 2)
    assert(m.restarts == 0 && m.maxSampled > 0, m.toString)
  }

  private val sampled = KCoreConfig.combos.filter(_.sampling.isDefined)
    .map(_.copy(sampling = Some(SamplingParams(threshold = 100))))
  private val graphGen: Gen[(String, LocalGraph)] = Gen.oneOf(
    for (n <- Gen.choose(1, 300); m <- Gen.choose(0, 6 * n); seed <- Gen.choose(0L, 10000L))
      yield (s"random($n, $m, $seed)", TestGraphs.random(n, m, seed)),
    for (n <- Gen.choose(300, 800); hubs <- Gen.choose(1, 3); frac <- Gen.choose(0.2, 0.5); seed <- Gen.choose(0L, 10000L))
      yield (s"hubby($n, $hubs, $frac, $seed)", TestGraphs.hubby(n, hubs, frac, seed)))

  test("engine == BZ on generated graphs, nParts and configs (property)") {
    // Up to 17 partitions: more than the slots, and some empty on small graphs.
    val prop = Prop.forAllNoShrink(graphGen, Gen.choose(1, 17), Gen.oneOf(presets ++ sampled)) {
      case ((gname, g), nParts, cfg) =>
        val (core, m, ex) = LocalExchange.run(g, nParts, cfg)
        ((core.toSeq == SeqKCore.bz(g).toSeq) :| "coreness == BZ" &&
          (m.edgeTraversals == g.adj.length.toLong) :| "edgeTraversals == 2m" &&
          (m.subroundsNonEmpty <= m.subrounds) :| "rho' <= subrounds" &&
          (ex.states.map(_.lastOut.counters.peeledOwnedTotal).sum == g.n) :| "peeled == n") :|
          s"${cfg.name} on $gname, nParts $nParts"
    }
    val params = SCTest.Parameters.default.withMinSuccessfulTests(80).withInitialSeed(Seed(20250))
    val res = SCTest.check(params, prop)
    assert(res.passed, res.status.toString)
  }

  /** A `LocalExchange` that checks the rule the peel loop ends a round by:
    * after every step, the least key over the outputs is ≥ 0 exactly when no
    * state has a frontier or a pending recount and no output carries a
    * decrement or a hit. It counts the steps on either side of the rule, and
    * checks that no output charges negative `work` or `structOps`.
    */
  private final class RoundEndCheck(inner: LocalExchange) extends Exchange {
    var ended, busy = 0
    /** Steps that left a recount pending, and the largest k stepped. */
    var recounts, maxK = 0
    var broken = List.empty[String]
    private def charged(at: String, outs: Array[SubroundOut]): Array[SubroundOut] = {
      for (o <- outs if o.counters.work < 0 || o.counters.structOps < 0)
        broken ::= s"$at, partition ${o.pid}: work ${o.counters.work}, structOps ${o.counters.structOps}"
      outs
    }
    def init(): Array[SubroundOut] = charged("init", inner.init())
    def step(in: SubroundIn): Array[SubroundOut] = {
      val outs = charged(s"subround ${in.subroundIndex}", inner.step(in))
      val voted = outs.map(_.counters.leastKey).min >= 0
      val idle = inner.states.forall(st => st.frontier.isEmpty && st.pendingRecount.isEmpty) &&
        outs.forall(o => o.decs.isEmpty && o.hits.isEmpty)
      if (voted != idle) broken ::= s"subround ${in.subroundIndex} (k = ${in.k}): least key ≥ 0 is $voted, idle is $idle"
      if (idle) ended += 1 else busy += 1
      if (inner.states.exists(_.pendingRecount.nonEmpty)) recounts += 1
      maxK = math.max(maxK, in.k)
      outs
    }
    def gather(steps: Int): Array[Int] = inner.gather(steps)
    def release(): Unit = inner.release()
  }

  /** `PeelEngine.run` in-thread, every attempt's exchange wrapped in a [[RoundEndCheck]]. */
  private def runChecked(g: LocalGraph, nParts: Int, cfg: KCoreConfig): (Array[Int], RunMetrics, Seq[RoundEndCheck]) = {
    val parts = Csr.buildLocal(g, nParts)
    val checks = scala.collection.mutable.ArrayBuffer.empty[RoundEndCheck]
    val (core, m) = PeelEngine.run(g.n, cfg, c => { checks += new RoundEndCheck(new LocalExchange(parts, c)); checks.last })
    (core, m, checks.toSeq)
  }

  test("a round ends exactly when every partition is idle (property)") {
    // The 80 cases of the property test above: same generators and seed.
    var ended, busy = 0
    val prop = Prop.forAllNoShrink(graphGen, Gen.choose(1, 17), Gen.oneOf(presets ++ sampled)) {
      case ((gname, g), nParts, cfg) =>
        val (core, _, checks) = runChecked(g, nParts, cfg)
        ended += checks.map(_.ended).sum
        busy += checks.map(_.busy).sum
        val broken = checks.flatMap(_.broken)
        (broken.isEmpty :| broken.reverse.mkString("; ") &&
          (core.toSeq == SeqKCore.bz(g).toSeq) :| "coreness == BZ") :| s"${cfg.name} on $gname, nParts $nParts"
    }
    val params = SCTest.Parameters.default.withMinSuccessfulTests(80).withInitialSeed(Seed(20250))
    val res = SCTest.check(params, prop)
    assert(res.passed, res.status.toString)
    assert(ended > 0 && busy > 0, s"ended $ended, busy $busy")
  }

  test("no output charges negative work or structOps when HBS takes over at θ") {
    // The generated graphs above stay below the θ-core; several of these reach it.
    for ((gname, g) <- graphs; cfg <- KCoreConfig.ours +: KCoreConfig.combos if cfg.buckets == Hierarchical) {
      val (core, _, checks) = runChecked(g, 4, cfg)
      val broken = checks.flatMap(_.broken)
      assert(broken.isEmpty, s"${cfg.name} on $gname: ${broken.reverse.mkString("; ")}")
      assert(core.toSeq == SeqKCore.bz(g).toSeq, s"${cfg.name} on $gname")
    }
  }

  /** A dense block ER(c, p) planted in a random or hub background, ids
    * permuted so that the block spans partitions: its core is often above θ.
    */
  private val denseCoreGen: Gen[(String, LocalGraph)] =
    for (n <- Gen.choose(300, 800); hubBackground <- Gen.oneOf(false, true); c <- Gen.choose(20, 80);
         p <- Gen.choose(0.5, 0.95); seed <- Gen.choose(0L, 10000L)) yield {
      val rng = new java.util.Random(seed)
      val el = new GraphGen.EdgeList
      if (hubBackground) {
        GraphGen.ba(el, n, 4, seed)
        GraphGen.hubs(el, n, 1 + rng.nextInt(3), 0.2 + 0.3 * rng.nextDouble(), seed + 1)
      } else (0 until (1 + rng.nextInt(4)) * n).foreach(_ => el.add(rng.nextInt(n), rng.nextInt(n)))
      GraphGen.erBlock(el, c, p, seed + 2, rng.nextInt(n - c + 1))
      val perm = Array.range(0, n)
      for (i <- n - 1 to 1 by -1) {
        val j = rng.nextInt(i + 1)
        val t = perm(i); perm(i) = perm(j); perm(j) = t
      }
      (f"dense($n, ${if (hubBackground) "hubs" else "random"}, c $c, p $p%.2f, $seed)",
        LocalGraph.fromPairs(n, el.srcs.map(perm), el.dsts.map(perm)))
    }

  test("engine == BZ on generated graphs with a dense core: HBS above θ, recounts and restarts (property)") {
    val hbs = KCoreConfig.combos.filter(_.buckets == Hierarchical)
    // μ = 8: validation lets sampled hubs miss peels, which the restart mends.
    val tinyMu = KCoreConfig.ours.copy(name = "Ours, tiny mu", sampling = Some(SamplingParams(threshold = 16, c = -1.95)))
    val cfgGen = Gen.frequency(2 -> Gen.oneOf(presets ++ hbs ++ sampled), 1 -> Gen.const(tinyMu))
    var aboveTheta, sampledCases, recountCases, restartCases = 0
    val prop = Prop.forAllNoShrink(denseCoreGen, Gen.choose(1, 17), cfgGen) {
      case ((gname, g), nParts, cfg) =>
        val (core, m, checks) = runChecked(g, nParts, cfg)
        if (cfg.buckets == Hierarchical && checks.exists(_.maxK >= KCoreConfig.Theta)) aboveTheta += 1
        if (m.maxSampled > 0) sampledCases += 1
        if (checks.exists(_.recounts > 0)) recountCases += 1
        if (m.restarts > 0) restartCases += 1
        val broken = checks.flatMap(_.broken)
        (broken.isEmpty :| broken.reverse.mkString("; ") &&
          (core.toSeq == SeqKCore.bz(g).toSeq) :| "coreness == BZ") :| s"${cfg.name} on $gname, nParts $nParts"
    }
    val params = SCTest.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(Seed(20260))
    val res = SCTest.check(params, prop)
    assert(res.passed, res.status.toString)
    assert(Seq(aboveTheta, sampledCases, recountCases, restartCases).forall(_ > 0),
      s"HBS at k >= θ $aboveTheta, sampled $sampledCases, recounts $recountCases, restarts $restartCases")
  }

  test("Spark exchange == LocalExchange with several partitions per task (property)") {
    // More partitions than slots, hosted in the derived task count and in 2
    // tasks: each task's outputs are flattened and sorted by pid.
    val slots = spark.sparkContext.defaultParallelism
    val prop = Prop.forAllNoShrink(graphGen, Gen.choose(slots + 1, math.max(slots + 1, 17)),
      Gen.oneOf(presets ++ sampled)) {
      case ((gname, g), nParts, cfg) =>
        val bz = SeqKCore.bz(g).toSeq
        val (_, local, _) = LocalExchange.run(g, nParts, cfg)
        val h = ParallelKCore.prepareLocal(spark, g, nParts)
        try {
          Seq("derived tasks" -> ParallelKCore.run(h, cfg), "2 tasks" -> runHosted(h, cfg, 2)).map {
            case (hosting, (core, m)) =>
              ((core.toSeq == bz) :| "coreness == BZ" &&
                (fingerprint(m) == fingerprint(local)) :| "RunMetrics == LocalExchange's") :| hosting
          }.reduce(_ && _) :| s"${cfg.name} on $gname, nParts $nParts"
        } finally h.unpersist()
    }
    val params = SCTest.Parameters.default.withMinSuccessfulTests(8).withInitialSeed(Seed(20251))
    val res = SCTest.check(params, prop)
    assert(res.passed, res.status.toString)
  }

  test("sampling reduces messages into hubs") {
    val g = TestGraphs.hubby(1500, 3, 0.3, 6)
    val mSampled = check(g, KCoreConfig.ours.copy(sampling = Some(lowThreshold)))
    val mPlain = check(g, KCoreConfig.ours.copy(sampling = None))
    assert(mSampled.maxContention < mPlain.maxContention,
      s"sampled=${mSampled.maxContention} plain=${mPlain.maxContention}")
  }

  test("adversarially tiny mu forces the Las-Vegas restart and stays correct") {
    // mu below the Chernoff regime makes validation unreliable → the engine
    // must detect the missed peel and restart without sampling.
    val g = TestGraphs.hubby(1200, 2, 0.4, 7)
    val cfg = KCoreConfig.ours.copy(sampling = Some(SamplingParams(threshold = 16, c = -1.95)))
    val handle = ParallelKCore.prepareLocal(spark, g, 4)
    val persisted = spark.sparkContext.getPersistentRDDs.size
    try {
      val t0 = System.nanoTime()
      val (core, metrics) = ParallelKCore.run(handle, cfg)
      val callMillis = (System.nanoTime() - t0) / 1e6
      assert(core.toSeq == SeqKCore.bz(g).toSeq)
      // At seed 42 and nParts 4 this config misses a peel exactly once.
      assert(metrics.restarts == 1)
      // The wall time covers the aborted attempt as well.
      assert(metrics.wallMillis >= 0.9 * callMillis, s"wall=${metrics.wallMillis} call=$callMillis")
      // Neither attempt leaves a step cached.
      assert(spark.sparkContext.getPersistentRDDs.size == persisted)
    } finally handle.unpersist()
  }

  test("the default mu restarts once on HPL at nParts 16 and recovers BZ's coreness") {
    // The suite's one restart at the default μ: hubs of partition 0 in
    // sample mode lose almost all their degree in the last round, k = 12,
    // and their recounts find a degree below k (CHANGES.md). Without the
    // restart the coreness is wrong.
    val g = GraphSuite.byName("HPL").build()
    val bz = SeqKCore.bz(g).toSeq
    for (cfg <- KCoreConfig.combos.filter(_.sampling.isDefined)) {
      val (core, m, _) = LocalExchange.run(g, 16, cfg)
      assert(core.toSeq == bz, s"${cfg.name} wrong coreness")
      assert(m.restarts == 1, s"${cfg.name}: $m")
    }
  }

  // ---- technique effect assertions ----------------------------------------

  test("VGC reduces subrounds on the grid (rho' << rho)") {
    val g = TestGraphs.grid(40, 40)
    val mPlain = check(g, KCoreConfig.plain)
    val mVgc = check(g, KCoreConfig.plain.copy(name = "VGC", vgcQueue = 128))
    assert(mVgc.subroundsNonEmpty < mPlain.subroundsNonEmpty / 2,
      s"vgc=${mVgc.subroundsNonEmpty} plain=${mPlain.subroundsNonEmpty}")
  }

  test("VGC reduces subrounds on the caterpillar") {
    val g = TestGraphs.smallCaterpillar
    val mPlain = check(g, KCoreConfig.plain)
    val mVgc = check(g, KCoreConfig.plain.copy(name = "VGC", vgcQueue = 128))
    assert(mVgc.subroundsNonEmpty < mPlain.subroundsNonEmpty)
  }

  test("engine rho (offline) matches the sequential framework rho") {
    val g = TestGraphs.grid(20, 20)
    val seqRho = SeqKCore.framework(g).rho
    val m = check(g, KCoreConfig.julienne)
    assert(m.subroundsNonEmpty == seqRho, s"engine=${m.subroundsNonEmpty} seq=$seqRho")
  }

  test("ParK does more frontier-extraction work than ours on HCNS") {
    val g = TestGraphs.smallHcns(40, 400)
    val mPark = check(g, KCoreConfig.park)
    val mOurs = check(g, KCoreConfig.ours)
    assert(mPark.structOps > 3 * mOurs.structOps,
      s"park=${mPark.structOps} ours=${mOurs.structOps}")
  }

  test("PKC peels whole chains in one subround on a path") {
    val g = TestGraphs.path(120)
    val mPkc = check(g, KCoreConfig.pkc)
    // The path lives in 4 partitions: chains stop only at partition borders.
    assert(mPkc.subroundsNonEmpty <= 10, s"pkc=${mPkc.subroundsNonEmpty}")
  }

  test("work is O(n + m): bounded against the plain engine's accounting") {
    val g = TestGraphs.random(400, 3000, 8)
    val m = check(g, KCoreConfig.plain)
    val bound = 20L * (g.n + g.adj.length)
    assert(m.work < bound, s"work=${m.work} bound=$bound")
  }

  test("metrics: every vertex processed exactly once") {
    val g = TestGraphs.random(300, 2000, 9)
    val handle = ParallelKCore.prepareLocal(spark, g, 4)
    try {
      presets.foreach { cfg =>
        val (_, m) = ParallelKCore.run(handle, cfg)
        assert(m.edgeTraversals == g.adj.length.toLong, s"${cfg.name}")
      }
    } finally handle.unpersist()
  }

  test("runDF round trip returns a coreness DataFrame") {
    val g = TestGraphs.random(150, 600, 10)
    val df = repro.graph.GraphOps.toDF(spark, g)
    val (out, _) = ParallelKCore.runDF(spark, df, g.n, KCoreConfig.ours)
    val got = out.collect().map(r => r.getInt(0) -> r.getInt(1)).toMap
    val expected = SeqKCore.bz(g)
    (0 until g.n).foreach(v => assert(got(v) == expected(v), s"vertex $v"))
  }

  test("prepare, prepareLocal and runDF reject nParts < 1 and name the value") {
    val g = TestGraphs.random(40, 120, 4)
    val df = repro.graph.GraphOps.toDF(spark, g)
    for (bad <- Seq(0, -3)) {
      val errors = Seq(
        intercept[IllegalArgumentException](ParallelKCore.prepareLocal(spark, g, bad)),
        intercept[IllegalArgumentException](ParallelKCore.prepare(spark, df, g.n, bad)),
        intercept[IllegalArgumentException](ParallelKCore.runDF(spark, df, g.n, KCoreConfig.ours.copy(nParts = bad))))
      errors.foreach(e => assert(e.getMessage.contains(s"nParts must be at least 1, got $bad"), e.getMessage))
    }
  }

  test("runDF rejects a vertex id outside [0, n) and names the edge") {
    val n = 10
    val raw = repro.graph.GraphOps.rawToDF(spark, Array(0, 1, 0), Array(1, 2, n))
    val e = intercept[Exception](ParallelKCore.runDF(spark, raw, n, KCoreConfig.ours))
    val msgs = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage).mkString("\n")
    assert(msgs.contains(s"edge (0, $n)") || msgs.contains(s"edge ($n, 0)"), msgs)
    assert(msgs.contains(s"outside [0, $n)"), msgs)
  }
}
