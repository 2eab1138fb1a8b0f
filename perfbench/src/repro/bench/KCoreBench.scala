package repro.bench

import java.io.{File, PrintWriter}
import java.nio.file.{Files, Paths}
import org.apache.spark.perfbench.SpanListener
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core.{GraphHandle, KCoreConfig, ParallelKCore}
import repro.engine.RunMetrics
import repro.graph.GraphOps
import repro.model.CostModel
import repro.seq.SeqKCore
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** k-core decomposition benchmark: drives the public API
  * (`ParallelKCore.prepareLocal` / `run` / `runDF`) from one driver JVM on
  * `local[nproc]`, one decomposition at a time, and checks every result
  * vertex for vertex against `SeqKCore.bz`.
  *
  * `--trace 0` times the decompositions and prints the end-to-end metrics.
  * `--trace 1` is the separate traced run: a listener records the Spark
  * jobs and tasks of each public call (wrapped in its own job group), the
  * layer functions `runDF` is built from are timed one by one, and the
  * per-layer metrics are printed. See perfbench/README.md.
  */
object KCoreBench {
  val Presets: Seq[(String, KCoreConfig)] = Seq(
    "ours" -> KCoreConfig.ours, "julienne" -> KCoreConfig.julienne,
    "park" -> KCoreConfig.park, "pkc" -> KCoreConfig.pkc)
  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 5
  /** Least time each kind of decomposition gets in one pass. */
  val SliceSeconds = 1.0
  /** Length of the untimed warm-up before the measured passes. */
  val WarmupSeconds = 20.0
  /** Least number of runDF / layer-by-layer pairs behind the layer-sum check. */
  val MinDfPairs = 5

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: String, buildId: String)

  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Opts(arg("workload"), arg("seed").toLong, arg("seconds").toDouble, arg("trace") == "1",
      arg("out"), arg("build-id"))
    val result = new KCoreBench(o, Workloads.byName(o.workload)).run()
    println(result)
    Console.out.flush()
    sys.exit(0)
  }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }

  def fingerprint(m: RunMetrics): String = m.copy(wallMillis = 0).toString

  /** CPU time stolen by the hypervisor since boot, in 1/100 s (the `steal`
    * column of /proc/stat); 0 where there is no /proc/stat. */
  def stealJiffies(): Long =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      try src.getLines().next().split("\\s+")(8).toLong finally src.close()
    } catch { case _: Exception => 0L }
}

/** What the spans of one traced decomposition say. `selfS` is the
  * decomposition's self time: its wall time minus the part of it covered by
  * its Spark jobs, i.e. the time the driver spends between jobs.
  */
final case class Layers(wallS: Double, jobs: Int, jobS: Double, selfS: Double, taskRunS: Double,
                        taskCritS: Double, taskDeserS: Double, schedS: Double, gcS: Double,
                        resultBytes: Double)

/** One timing of `runDF`'s layers, called one by one as `runDF` calls them.
  * `symmetrizeS` is the Catalyst symmetrization materialized on its own; it
  * also runs inside the distributed CSR build, so it is not part of the sum.
  */
final case class DfLayers(buildDistS: Double, runS: Double, collectS: Double, symmetrizeS: Double) {
  def sum: Double = buildDistS + runS + collectS
}

final class KCoreBench(o: KCoreBench.Opts, w: Workload) {
  import KCoreBench._

  private val tmpDir = new File(o.out, "tmp").getAbsolutePath
  private val cores = Runtime.getRuntime.availableProcessors()
  private val baseMs = System.currentTimeMillis()
  private val baseNs = System.nanoTime()
  private def epochMs(ns: Long): Double = baseMs + (ns - baseNs) / 1e6
  private def log(s: String): Unit = Console.err.println(s"[perfbench] $s")

  private var spark: SparkSession = _
  private var listener: SpanListener = _
  private var attempted = 0
  private var failed = 0
  private var groups = 0
  /** False during warm-up: results are checked but not timed or traced. */
  private var measuring = false
  private val walls = mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]
  /** Per timed sample: the share of the machine's CPU time the hypervisor
    * stole while it ran. Logged beside the sample, to tell a slow host from
    * a slow program. */
  private val steals = mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]
  private val layers = mutable.LinkedHashMap.empty[String, ArrayBuffer[Layers]]
  private val counters = mutable.LinkedHashMap.empty[String, RunMetrics]
  private val dfLayers = ArrayBuffer.empty[DfLayers]
  /** Per pair: the layers' sum over the paired runDF's wall time. */
  private val dfLayerRatios = ArrayBuffer.empty[Double]
  /** Decomposition spans: (job group, kind, start, end) in epoch ms. */
  private val decompositions = ArrayBuffer.empty[(String, String, Double, Double)]

  private def fail(what: String, why: String): Unit = { failed += 1; log(s"FAILED $what: $why") }

  private def startSpark(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("kcore-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", tmpDir)
      .config("spark.sql.warehouse.dir", new File(tmpDir, "warehouse").getAbsolutePath)
      // Catalyst's shuffles (runDF's symmetrization) get as many partitions
      // as the engine, not Spark's default of 200: on these small graphs the
      // 200 near-empty shuffle tasks took half of df_s and most of its noise.
      .config("spark.sql.shuffle.partitions", KCoreConfig.ours.nParts.toString)
      .getOrCreate()
    s
  }

  private def collectCoreness(df: DataFrame, n: Int): Array[Int] = {
    val core = Array.fill(n)(-1)
    df.select("vertex", "coreness").collect().foreach(r => core(r.getInt(0)) = r.getInt(1))
    core
  }

  private def runDF(raw: DataFrame, n: Int): (Array[Int], RunMetrics) = {
    val (df, m) = ParallelKCore.runDF(spark, raw, n, KCoreConfig.ours.copy(seed = o.seed))
    (collectCoreness(df, n), m)
  }

  /** Runs one public call as one decomposition: times it from outside,
    * checks its coreness against `ref` and its counters against earlier runs
    * of the same kind, and, when traced, attributes its Spark jobs to it
    * through a job group of its own. Returns the wall time and the counters,
    * or None if it failed.
    */
  private def decompose(kind: String, ref: Array[Int])
                       (call: => (Array[Int], RunMetrics)): Option[(Double, RunMetrics)] = {
    attempted += 1
    val traced = listener != null && measuring
    val group = s"kcore-$groups-$kind"
    groups += 1
    val sc = spark.sparkContext
    if (traced) sc.setJobGroup(group, s"perfbench $kind", interruptOnCancel = false)
    val st0 = stealJiffies()
    val t0 = System.nanoTime()
    val res = try Right(call) catch { case e: Exception => Left(e) } finally if (traced) sc.clearJobGroup()
    val t1 = System.nanoTime()
    val wall = (t1 - t0) / 1e9
    val stealFrac = (stealJiffies() - st0) / 100.0 / (wall * cores)
    res match {
      case Left(e) => fail(kind, e.toString); None
      case Right((core, _)) if !java.util.Arrays.equals(core, ref) =>
        val bad = core.indices.count(v => v >= ref.length || core(v) != ref(v))
        fail(kind, s"coreness differs from BZ at $bad vertices"); None
      case Right((_, m)) =>
        counters.get(kind) match {
          case Some(prev) if fingerprint(prev) != fingerprint(m) =>
            fail(kind, s"counters differ across repetitions:\n  ${fingerprint(prev)}\n  ${fingerprint(m)}")
          case _ => counters(kind) = m
        }
        if (measuring) {
          walls.getOrElseUpdate(kind, ArrayBuffer.empty) += wall
          steals.getOrElseUpdate(kind, ArrayBuffer.empty) += stealFrac
        }
        if (traced) {
          decompositions += ((group, kind, epochMs(t0), epochMs(t1)))
          val l = layersOf(group, t0, t1)
          layers.getOrElseUpdate(kind, ArrayBuffer.empty) += l
          selfTest(kind, l, m)
        }
        Some((wall, m))
    }
  }

  private def layersOf(group: String, t0: Long, t1: Long): Layers = {
    listener.drain(spark.sparkContext)
    val js = listener.jobsOf(group)
    val (s, e) = (epochMs(t0), epochMs(t1))
    // Union of the job intervals, clipped to the decomposition's span.
    var covered = 0.0
    var (cs, ce) = (0.0, 0.0)
    js.sortBy(_.start).foreach { j =>
      val (a, b) = (math.max(j.start.toDouble, s), math.min(j.end.toDouble, e))
      if (b > a) {
        if (a > ce) { covered += ce - cs; cs = a; ce = b } else ce = math.max(ce, b)
      }
    }
    covered += ce - cs
    val ts = listener.tasksOf(js.map(_.id).toSet)
    val crit = ts.groupBy(_.job).valuesIterator.map(_.map(t => t.finish - t.launch).max).sum
    Layers((t1 - t0) / 1e9, js.size, js.map(j => j.end - j.start).sum / 1e3, (e - s - covered) / 1e3,
      ts.map(_.runMs).sum / 1e3, crit / 1e3, ts.map(_.deserMs).sum / 1e3, ts.map(_.schedMs).sum / 1e3,
      ts.map(_.gcMs).sum / 1e3, ts.map(_.resultBytes).sum.toDouble)
  }

  /** Consistency of the spans with the counters and the outside clock. */
  private def selfTest(kind: String, l: Layers, m: RunMetrics): Unit = {
    if (kind != "df" && m.restarts == 0 && l.jobs != m.subrounds + 2)
      fail(kind, s"self-test: ${l.jobs} Spark jobs for ${m.subrounds} subrounds (expected subrounds + 2)")
    if (math.abs(l.selfS + l.jobS - l.wallS) > 0.05 * l.wallS)
      fail(kind, f"self-test: driver ${l.selfS}%.4f s + jobs ${l.jobS}%.4f s vs wall ${l.wallS}%.4f s")
  }

  /** `runDF`'s layers, called one by one as `runDF` calls them. */
  private def timeDfLayers(raw: DataFrame, n: Int, ref: Array[Int]): Option[DfLayers] = {
    attempted += 1
    val cfg = KCoreConfig.ours.copy(seed = o.seed)
    try {
      val t0 = System.nanoTime()
      val handle = ParallelKCore.prepare(spark, GraphOps.symmetrize(raw), n, cfg.nParts)
      val t1 = System.nanoTime()
      val (core, _) = try ParallelKCore.run(handle, cfg) finally handle.unpersist()
      val t2 = System.nanoTime()
      val session = spark
      import session.implicits._
      // Mirrors how runDF turns the coreness array into its result DataFrame.
      val df = spark.sparkContext
        .parallelize(core.indices.map(v => (v, core(v))), math.min(16, math.max(1, core.length / 10000 + 1)))
        .toDF("vertex", "coreness")
      val got = collectCoreness(df, n)
      val t3 = System.nanoTime()
      GraphOps.symmetrize(raw).count()
      val l = DfLayers((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9, (System.nanoTime() - t3) / 1e9)
      if (java.util.Arrays.equals(got, ref)) { dfLayers += l; Some(l) }
      else { fail("df-layers", "coreness differs from BZ"); None }
    } catch { case e: Exception => fail("df-layers", e.toString); None }
  }

  def run(): String = {
    val t0 = System.nanoTime()
    val input = w.build(o.seed)
    val g = input.g
    val t1 = System.nanoTime()
    val ref = SeqKCore.bz(g)
    val bzS = (System.nanoTime() - t1) / 1e9
    val fw = SeqKCore.framework(g)
    if (!java.util.Arrays.equals(fw.core, ref)) fail("seq.framework", "coreness differs from BZ")
    val stats = Stats(g.n, g.m, fw.kmax, fw.rho)
    log(f"${o.workload} seed=${o.seed}: n=${stats.n} m=${stats.m} kmax=${stats.kmax} rho=${stats.rho} " +
      f"(generated in ${(t1 - t0) / 1e9}%.2f s, BZ ${bzS}%.3f s)")
    // --- set-up, several times: SparkSession start, prepareLocal and the raw
    // edge DataFrame, each materialized.
    val setups = ArrayBuffer.empty[Double]
    val csrBuild = ArrayBuffer.empty[Double]
    var handle: GraphHandle = null
    var raw: DataFrame = null
    for (_ <- 1 to SetupReps) {
      if (spark != null) { handle.unpersist(); raw.unpersist(); spark.stop() }
      val s0 = System.nanoTime()
      spark = startSpark()
      val s1 = System.nanoTime()
      handle = ParallelKCore.prepareLocal(spark, g)
      handle.base.count()
      val s2 = System.nanoTime()
      raw = GraphOps.rawToDF(spark, input.srcs, input.dsts).persist(StorageLevel.MEMORY_ONLY)
      raw.count()
      setups += (System.nanoTime() - s0) / 1e9
      csrBuild += (s2 - s1) / 1e9
    }

    // --- passes over every kind: untimed ones for WarmupSeconds to warm up
    // the JVM and Spark (their per-subround cost keeps falling for several
    // passes), then timed ones for --seconds. The first pass of a phase
    // always completes, so every kind has a sample.
    val kinds: Seq[() => Unit] =
      Presets.map { case (k, cfg) =>
        () => { decompose(k, ref)(ParallelKCore.run(handle, cfg.copy(seed = o.seed))); () }
      } :+ (() => { decompose("df", ref)(runDF(raw, g.n)); () })
    passes(kinds, WarmupSeconds)
    log(f"set-up and warm-up done at ${(System.nanoTime() - t0) / 1e9}%.1f s")
    measuring = true
    if (!o.trace) passes(kinds, o.seconds)
    else {
      listener = new SpanListener
      spark.sparkContext.addSparkListener(listener)
      // Each traced Ours is paired with an untraced one, and each traced
      // runDF with its layers called one by one, so that each pair sees the
      // same conditions.
      val dfPair = () => decompose("df", ref)(runDF(raw, g.n)).foreach { case (wall, _) =>
        timeDfLayers(raw, g.n, ref).foreach(l => dfLayerRatios += l.sum / wall)
      }
      passes((() => { kinds.head(); untracedOurs(handle, ref) }) +: kinds.tail.init :+ dfPair, o.seconds)
      while (w.checkDfLayers && dfLayerRatios.size < MinDfPairs && failed == 0) dfPair()
    }

    val regimeOk = w.inRegime(stats, counters.toMap)
    if (!regimeOk) log(s"WARNING: seed ${o.seed} leaves the regime workload ${o.workload} is meant for")
    crossRunFingerprints()
    for ((k, ws) <- walls)
      log(f"$k%-14s subrounds=${counters.get(k).fold(-1)(_.subrounds)}%4d median=${median(ws.toSeq)}%.4f s " +
        s"of ${ws.zip(steals(k)).map { case (x, st) => f"$x%.3f/$st%.3f" }.mkString(", ")}")
    log(f"setup median=${median(setups.toSeq)}%.4f s of ${setups.map(x => f"$x%.3f").mkString(", ")}")

    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    def put(name: String, v: Double, unit: String): Unit = metrics(name) = (v, unit)
    def med(kind: String): Double = median(walls.getOrElse(kind, Nil).toSeq)
    if (!o.trace) {
      put("setup_s", median(setups.toSeq), "s")
      for ((k, _) <- Presets) put(s"${k}_s", med(k), "s")
      put("df_s", med("df"), "s")
    } else {
      spark.sparkContext.removeSparkListener(listener)
      val ratio = median(dfLayerRatios.toSeq)
      if (w.checkDfLayers && !(math.abs(ratio - 1) <= 0.10))
        fail("df-layers", f"self-test: runDF's layers sum to $ratio%.3f of its wall time " +
          s"(pairs: ${dfLayerRatios.map(r => f"$r%.3f").mkString(", ")})")
      perLayer(put, stats, regimeOk, handle.nParts, median(csrBuild.toSeq), bzS)
      writeTrace(s"""{"type":"input","workload":"${o.workload}","seed":${o.seed},"n":${stats.n},""" +
        s""""m":${stats.m},"kmax":${stats.kmax},"rho":${stats.rho},"nparts":${handle.nParts},"regime_ok":$regimeOk}""")
    }
    spark.stop()

    val ms = metrics.map { case (k, (v, u)) =>
      val value = if (v.isNaN || v.isInfinite) "null" else v.toString
      s""""$k": {"value": $value, "unit": "$u"}"""
    }
    val correct = failed == 0 && metrics.valuesIterator.forall(!_._1.isNaN)
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  /** Round-robin passes over `steps` for `seconds`. Within a pass a step
    * repeats until it has run for `SliceSeconds`, so short decompositions
    * get as much measured time, and as many samples, as long ones.
    */
  private def passes(steps: Seq[() => Unit], seconds: Double): Unit = {
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var pass = 0
    def due = pass == 0 || System.nanoTime() < deadline
    while (due) {
      for (step <- steps if due) {
        val t = System.nanoTime()
        step()
        while (System.nanoTime() - t < SliceSeconds * 1e9 && due) step()
      }
      pass += 1
    }
  }

  /** Ours with the listener detached: the base of the tracing overhead. */
  private def untracedOurs(handle: GraphHandle, ref: Array[Int]): Unit = {
    val sc = spark.sparkContext
    sc.removeSparkListener(listener)
    val saved = listener
    listener = null
    try decompose("ours-untraced", ref)(ParallelKCore.run(handle, KCoreConfig.ours.copy(seed = o.seed)))
    finally { listener = saved; sc.addSparkListener(listener) }
  }

  private def perLayer(put: (String, Double, String) => Unit, stats: Stats, regimeOk: Boolean,
                       nParts: Int, csrBuildS: Double, bzS: Double): Unit = {
    def med(xs: Iterable[Double]): Double = median(xs.toSeq)
    for ((k, _) <- Presets) {
      val ls = layers.getOrElse(k, ArrayBuffer.empty[Layers])
      val m = counters.get(k)
      def c(f: RunMetrics => Double): Double = m.map(f).getOrElse(Double.NaN)
      val wall = med(ls.map(_.wallS))
      put(s"$k.engine.wall_s", wall, "s")
      put(s"$k.engine.jobs", med(ls.map(_.jobs.toDouble)), "count")
      put(s"$k.engine.subrounds", c(_.subrounds), "count")
      put(s"$k.engine.rho_prime", c(_.subroundsNonEmpty), "count")
      put(s"$k.engine.job_s", med(ls.map(_.jobS)), "s")
      put(s"$k.engine.driver_s", med(ls.map(_.selfS)), "s")
      put(s"$k.engine.ms_per_subround", wall * 1e3 / c(_.subrounds), "ms")
      put(s"$k.engine.task_run_s", med(ls.map(_.taskRunS)), "s")
      put(s"$k.engine.task_crit_s", med(ls.map(_.taskCritS)), "s")
      put(s"$k.engine.task_deser_s", med(ls.map(_.taskDeserS)), "s")
      put(s"$k.engine.sched_wait_s", med(ls.map(_.schedS)), "s")
      put(s"$k.engine.gc_s", med(ls.map(_.gcS)), "s")
      put(s"$k.engine.result_bytes", med(ls.map(_.resultBytes)), "bytes")
      put(s"$k.engine.dec_msgs", c(_.decMsgs), "count")
      put(s"$k.engine.hit_msgs", c(_.hitMsgs), "count")
      put(s"$k.engine.inbound_applied", c(_.inboundApplied), "count")
      put(s"$k.engine.work", c(_.work), "count")
      put(s"$k.engine.edge_traversals", c(_.edgeTraversals), "count")
      put(s"$k.engine.span_ops", c(_.spanOps), "count")
      put(s"$k.structures.struct_ops", c(_.structOps), "count")
      put(s"$k.model.tp_s", m.map(CostModel.tpSeconds(_)).getOrElse(Double.NaN), "s")
    }
    val ours = counters.get("ours")
    put("ours.sampling.max_sampled", ours.map(_.maxSampled.toDouble).getOrElse(Double.NaN), "count")
    put("ours.sampling.max_contention", ours.map(_.maxContention.toDouble).getOrElse(Double.NaN), "count")
    put("ours.engine.restarts", ours.map(_.restarts.toDouble).getOrElse(Double.NaN), "count")
    put("julienne.engine.histogram_ops",
      counters.get("julienne").map(_.histogramOps.toDouble).getOrElse(Double.NaN), "count")

    val df = layers.getOrElse("df", ArrayBuffer.empty[Layers])
    put("df.wall_s", med(df.map(_.wallS)), "s")
    put("df.engine.jobs", med(df.map(_.jobs.toDouble)), "count")
    put("df.graph.symmetrize_s", med(dfLayers.map(_.symmetrizeS)), "s")
    put("df.csr.build_dist_s", med(dfLayers.map(_.buildDistS)), "s")
    put("df.engine.run_s", med(dfLayers.map(_.runS)), "s")
    put("df.collect_s", med(dfLayers.map(_.collectS)), "s")
    put("df.layers_s", med(dfLayers.map(_.sum)), "s")
    put("df.layers_ratio", med(dfLayerRatios), "ratio")

    put("csr.build_s", csrBuildS, "s")
    put("seq.bz_s", bzS, "s")
    put("input.n", stats.n, "count")
    put("input.m", stats.m.toDouble, "count")
    put("input.kmax", stats.kmax, "count")
    put("input.rho", stats.rho, "count")
    put("input.nparts", nParts, "count")
    put("input.regime_ok", if (regimeOk) 1 else 0, "bool")
    val untraced = med(walls.getOrElse("ours-untraced", Nil))
    put("trace.ours_untraced_s", untraced, "s")
    put("trace.overhead_ours", med(layers.getOrElse("ours", Nil).map(_.wallS)) / untraced - 1, "ratio")
    put("trace.spans", (decompositions.size + listener.spanCount).toDouble, "count")
  }

  /** Counters must repeat exactly across runs with the same seed and build. */
  private def crossRunFingerprints(): Unit = {
    val dir = Paths.get(o.out, "fingerprints")
    Files.createDirectories(dir)
    val file = dir.resolve(s"${o.buildId}-${o.workload}-${o.seed}.txt")
    val now = (Presets.map(_._1) :+ "df").flatMap(k => counters.get(k).map(m => s"$k\t${fingerprint(m)}"))
    if (Files.exists(file)) {
      val before = new String(Files.readAllBytes(file), "UTF-8").split("\n").map { l =>
        val Array(k, f) = l.split("\t", 2); k -> f
      }.toMap
      for (line <- now; Array(k, f) = line.split("\t", 2); prev <- before.get(k) if prev != f)
        fail(k, s"counters differ from an earlier run with the same seed:\n  $prev\n  $f")
    } else Files.write(file, now.mkString("\n").getBytes("UTF-8"))
  }

  /** The input's shape, then the decomposition, job and task spans of the
    * traced run, one JSON object a line; jobs name their decomposition's
    * group, tasks their job.
    */
  private def writeTrace(inputLine: String): Unit = {
    val dir = new File(o.out, "traces")
    dir.mkdirs()
    val pw = new PrintWriter(new File(dir, s"${o.workload}-seed${o.seed}.jsonl"), "UTF-8")
    try {
      pw.write(inputLine + "\n")
      decompositions.foreach { case (group, kind, s, e) =>
        pw.write(s"""{"type":"decomposition","id":"$group","kind":"$kind","start":$s,"end":$e}""" + "\n")
      }
      listener.writeJsonLines(pw)
    } finally pw.close()
  }
}
