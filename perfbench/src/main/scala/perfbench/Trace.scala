package perfbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd
import scala.collection.mutable

/** A traced interval. Spans of one query share `query`; times are
  * `System.nanoTime` values.
  */
final case class Span(id: Int, parent: Int, name: String, query: Int, startNs: Long, endNs: Long) {
  def durationNs: Long = endNs - startNs
}

/** Spans kept in memory until the run ends. */
final class Tracer {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var nextId = 0

  def record(parent: Int, name: String, query: Int, startNs: Long, endNs: Long): Int = {
    nextId += 1
    spans += Span(nextId, parent, name, query, startNs, endNs)
    nextId
  }

  def all: Seq[Span] = spans.toSeq

  def writeTo(file: java.io.File): Unit = {
    file.getParentFile.mkdirs()
    val w = new java.io.PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      w.println(Stats.json(Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "query" -> s.query, "start_ns" -> s.startNs, "end_ns" -> s.endNs)))
    } finally w.close()
  }
}

/** What one completed stage did, from Spark's public listener events. */
final case class StageRecord(
    stageId: Int,
    scopes: Set[String],
    parents: Seq[Int],
    submitMs: Long,
    completeMs: Long,
    tasks: Int,
    busyMs: Long,
    maxTaskMs: Long,
    shuffleReadRecords: Long,
    shuffleWriteRecords: Long)

/** Collects stage and task metrics per Spark job group. */
final class StageListener extends SparkListener {
  private final class Acc(val group: String) {
    var tasks = 0; var busyMs = 0L; var maxTaskMs = 0L
    var readRecords = 0L; var writeRecords = 0L
  }
  private val open = mutable.Map.empty[Int, Acc]
  private val done = mutable.Map.empty[String, mutable.ArrayBuffer[StageRecord]]
  private val jobs = mutable.Map.empty[String, mutable.Set[Int]]
  private val executions = mutable.Map.empty[String, mutable.Set[Long]]
  private val executionsEnded = mutable.Set.empty[Long]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse("")
    jobs.getOrElseUpdate(group, mutable.Set.empty) += e.jobId
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
      .foreach(id => executions.getOrElseUpdate(group, mutable.Set.empty) += id.toLong)
    e.stageIds.foreach(id => if (!open.contains(id)) open(id) = new Acc(group))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    open.get(e.stageId).foreach { a =>
      a.tasks += 1
      a.maxTaskMs = math.max(a.maxTaskMs, e.taskInfo.duration)
      Option(e.taskMetrics).foreach { m =>
        a.busyMs += m.executorRunTime
        a.readRecords += m.shuffleReadMetrics.recordsRead
        a.writeRecords += m.shuffleWriteMetrics.recordsWritten
      }
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    open.remove(info.stageId).foreach { a =>
      done.getOrElseUpdate(a.group, mutable.ArrayBuffer.empty) += StageRecord(
        info.stageId,
        info.rddInfos.flatMap(_.scope.map(_.name)).toSet,
        info.parentIds,
        info.submissionTime.getOrElse(0L), info.completionTime.getOrElse(0L),
        a.tasks, a.busyMs, a.maxTaskMs, a.readRecords, a.writeRecords)
    }
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case end: SparkListenerSQLExecutionEnd => synchronized {
      executionsEnded += end.executionId
      notifyAll()
    }
    case _ =>
  }

  /** Wait, at most 10 s, until the listener has seen the end of every SQL
    * execution that ran jobs of `group`. Each execution's job and stage
    * events are posted before its end event, so they have all been counted
    * by then.
    */
  def awaitGroup(group: String): Boolean = synchronized {
    val deadline = System.currentTimeMillis() + 10000
    def ended = executions.get(group).exists(_.forall(executionsEnded))
    while (!ended && System.currentTimeMillis() < deadline)
      wait(math.max(1L, deadline - System.currentTimeMillis()))
    ended
  }

  /** Stages and job count of job group `group`, forgetting them. */
  def take(group: String): (Seq[StageRecord], Int) = synchronized {
    val stages = done.remove(group).map(_.toSeq).getOrElse(Nil)
    executions.remove(group)
    (stages.sortBy(_.stageId), jobs.remove(group).map(_.size).getOrElse(0))
  }
}
