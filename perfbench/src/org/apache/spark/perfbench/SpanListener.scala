package org.apache.spark.perfbench

import java.io.Writer
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** A Spark job as seen by the listener: its job group names the
  * decomposition that caused it. Times are epoch milliseconds.
  */
final case class JobSpan(id: Int, group: String, start: Long, var end: Long, stages: Seq[Int])

/** One finished task. `schedMs` is the scheduler delay as Spark's UI derives
  * it: the part of the task's duration spent neither deserializing, running,
  * serializing its result nor shipping it.
  */
final case class TaskSpan(job: Int, stage: Int, launch: Long, finish: Long, runMs: Long,
                          deserMs: Long, gcMs: Long, resultBytes: Long, schedMs: Long)

/** Records job and task spans from Spark's listener bus, keyed by job group,
  * so that the benchmark can attribute them to the public call it wrapped in
  * `setJobGroup`. Lives under `org.apache.spark` only to reach the listener
  * bus's `waitUntilEmpty`.
  */
final class SpanListener extends SparkListener {
  private val jobs = mutable.LinkedHashMap.empty[Int, JobSpan]
  private val stageToJob = mutable.HashMap.empty[Int, Int]
  private val tasks = mutable.ArrayBuffer.empty[TaskSpan]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).map(_.getProperty(SparkContext.SPARK_JOB_GROUP_ID)).orNull
    jobs(e.jobId) = JobSpan(e.jobId, group, e.time, -1L, e.stageIds)
    e.stageIds.foreach(s => stageToJob.getOrElseUpdate(s, e.jobId))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.end = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val i = e.taskInfo
    val m = e.taskMetrics
    if (m != null) {
      val dur = i.finishTime - i.launchTime
      val sched = math.max(0L, dur - m.executorDeserializeTime - m.executorRunTime -
        m.resultSerializationTime - (if (i.gettingResultTime > 0) i.finishTime - i.gettingResultTime else 0L))
      tasks += TaskSpan(stageToJob.getOrElse(e.stageId, -1), e.stageId, i.launchTime, i.finishTime,
        m.executorRunTime, m.executorDeserializeTime, m.jvmGCTime, m.resultSize, sched)
    }
  }

  /** Blocks until every event posted so far has been delivered and every job
    * seen to start has been seen to end (a job's end is posted just after
    * the caller waiting on it is released).
    */
  def drain(sc: SparkContext): Unit = {
    sc.listenerBus.waitUntilEmpty()
    while (synchronized(jobs.valuesIterator.exists(_.end < 0))) {
      Thread.sleep(1)
      sc.listenerBus.waitUntilEmpty()
    }
  }

  def jobsOf(group: String): Seq[JobSpan] = synchronized(jobs.valuesIterator.filter(_.group == group).toVector)

  def tasksOf(jobIds: Set[Int]): Seq[TaskSpan] = synchronized(tasks.filter(t => jobIds(t.job)).toVector)

  def spanCount: Int = synchronized(jobs.size + tasks.size)

  /** Writes every job and task span as one JSON object per line; a job's
    * parent is its group (a decomposition), a task's parent its job.
    */
  def writeJsonLines(w: Writer): Unit = synchronized {
    jobs.valuesIterator.foreach { j =>
      w.write(s"""{"type":"job","id":${j.id},"parent":${jsonStr(j.group)},"start":${j.start},"end":${j.end},""" +
        s""""stages":[${j.stages.mkString(",")}]}""" + "\n")
    }
    tasks.foreach { t =>
      w.write(s"""{"type":"task","parent":${t.job},"stage":${t.stage},"start":${t.launch},"end":${t.finish},""" +
        s""""run_ms":${t.runMs},"deser_ms":${t.deserMs},"gc_ms":${t.gcMs},"result_bytes":${t.resultBytes},""" +
        s""""sched_ms":${t.schedMs}}""" + "\n")
    }
  }

  private def jsonStr(s: String): String = if (s == null) "null" else "\"" + s.replace("\"", "\\\"") + "\""
}
