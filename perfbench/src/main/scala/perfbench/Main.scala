package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{Callable, ExecutionException, Executors, TimeUnit, TimeoutException}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.{Join, LogicalPlan}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.skyline.Bridge
import repro.core.SkylineOperator
import repro.reference.ReferenceSkyline
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** The skyline benchmark: one workload, one seed, a closed loop with one
  * client (one query in flight at a time) on Spark `local[nproc]`.
  *
  * {{{
  *   perfbench.Main --workload indep-6d --seed 1 --seconds 10 --trace 0
  * }}}
  *
  * With `--trace 0` it prints the end-to-end metrics, measured untraced.
  * With `--trace 1` it alternates traced and untraced rounds and prints the
  * per-layer metrics, from spans taken around the public entry points of
  * each layer and from Spark's listener and plan metrics. The last stdout
  * line is the JSON result; `--tiny` shrinks the inputs and turns on the
  * benchmark's own consistency checks (the self-test).
  */
object Main {

  final case class Options(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      tiny: Boolean,
      workDir: java.io.File,
      sourceId: String)

  private def parse(args: Array[String]): Options = {
    val kv = args.sliding(2, 2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val flags = args.filter(_.startsWith("--")).map(_.drop(2)).toSet
    def need(k: String): String = kv.getOrElse(k, sys.error(s"missing --$k"))
    Options(
      workload = need("workload"),
      seed = need("seed").toLong,
      seconds = need("seconds").toDouble,
      trace = need("trace") match {
        case "0" => false
        case "1" => true
        case t   => sys.error(s"--trace takes 0 or 1, not $t")
      },
      tiny = flags.contains("tiny"),
      workDir = new java.io.File(kv.getOrElse("work-dir", "perfbench/target/work")),
      sourceId = kv.getOrElse("source-id", "unknown"))
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val workload = Workloads.byName(opts.workload)
    val nproc = Runtime.getRuntime.availableProcessors()
    val spark = SparkSession.builder
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.sql.extensions", "repro.core.SkylineExtensions")
      .config("spark.sql.shuffle.partitions", nproc.toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", new java.io.File(opts.workDir, "warehouse").getAbsolutePath)
      .getOrCreate()
    val code =
      try {
        val result = new Run(spark, workload, opts, nproc).execute()
        println(result)
        0
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          1
      } finally spark.stop()
    System.exit(code)
  }
}

object Run {
  /** Timestamps of one traced query, in `System.nanoTime` units. */
  final case class Phases(
      start: Long, parse: Long, analyze: Long, optimize: Long, plan: Long, end: Long,
      epochOffsetNs: Long)

  /** One executed query. */
  final case class Sample(
      query: Query,
      id: Int,
      wallNs: Long,
      cpuNs: Long,
      ok: Boolean,
      resultRows: Int,
      fingerprint: Option[Fingerprint],
      df: Option[DataFrame],
      phases: Option[Phases])
}

/** One benchmark run. */
final class Run(spark: SparkSession, workload: Workload, opts: Main.Options, nproc: Int) {
  import Run._

  private val sc = spark.sparkContext
  private val queryTimeoutS = 60L
  private val pool = Executors.newSingleThreadExecutor { (r: Runnable) =>
    val t = new Thread(r, "perfbench-client"); t.setDaemon(true); t
  }
  private val threadBean = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  private var attempted = 0
  private var failed = 0
  private val problems = mutable.ArrayBuffer.empty[String]
  private var nextQuery = 0
  private var expected = Map.empty[String, Fingerprint]
  private var loopDetails = Map.empty[String, Any]

  private def gcMs: Long = gcBeans.map(_.getCollectionTime).sum

  /** CPU time of every live Java thread: the driver and Spark's task
    * threads. JIT compiler and GC threads are not Java threads; in a fresh
    * JVM their work is mostly warm-up, so leaving them out keeps the figure
    * about the queries (GC time is reported per layer as `jvm.gc_ms`).
    */
  private def threadCpu(): Map[Long, Long] = {
    val ids = threadBean.getAllThreadIds
    ids.zip(threadBean.getThreadCpuTime(ids)).filter(_._2 >= 0).toMap
  }

  private def cpuSince(before: Map[Long, Long]): Long =
    threadCpu().iterator.map { case (id, t) => t - before.getOrElse(id, 0L) }.sum

  private def log(msg: String): Unit =
    Console.err.println(f"[perfbench ${ManagementFactory.getRuntimeMXBean.getUptime / 1000.0}%6.1fs] $msg")

  /** Run `q` once on the client thread and check its result. Traced runs
    * time each layer's entry point separately; untraced runs call the
    * public API as a user would. The fingerprint is taken after the clock
    * stops.
    */
  private def execute(q: Query, traced: Boolean): Sample = {
    nextQuery += 1
    val id = nextQuery
    val group = s"perfbench-q$id"
    val body: Callable[(Array[Row], DataFrame, Option[Phases])] = () => {
      sc.setJobGroup(group, q.name, interruptOnCancel = true)
      try {
        if (!traced) {
          val df = q.dataFrame(spark)
          (df.collect(), df, None)
        } else {
          val start = System.nanoTime()
          val parsed = q.sql.map(t =>
            spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession]
              .sessionState.sqlParser.parsePlan(t))
          // DataFrame API queries never reach the parser: an empty span
          val tParse = if (parsed.isEmpty) start else System.nanoTime()
          val df = parsed.fold(q.dataFrame(spark))(p => Bridge.ofRows(spark, p))
          val tAnalyze = System.nanoTime()
          df.queryExecution.optimizedPlan
          val tOptimize = System.nanoTime()
          df.queryExecution.executedPlan
          val tPlan = System.nanoTime()
          val offset = tPlan - System.currentTimeMillis() * 1000000L
          val rows = df.collect()
          val end = System.nanoTime()
          (rows, df, Some(Phases(start, tParse, tAnalyze, tOptimize, tPlan, end, offset)))
        }
      } finally sc.clearJobGroup()
    }
    val cpu0 = threadCpu()
    val t0 = System.nanoTime()
    val future = pool.submit(body)
    val outcome =
      try Right(future.get(queryTimeoutS, TimeUnit.SECONDS))
      catch {
        case _: TimeoutException =>
          sc.cancelJobGroup(group)
          future.cancel(true)
          Left(s"timed out after $queryTimeoutS s")
        case e: ExecutionException => Left(String.valueOf(e.getCause))
      }
    val wall = System.nanoTime() - t0
    val cpu = cpuSince(cpu0)
    attempted += 1
    outcome match {
      case Right((rows, df, phases)) =>
        val fp = Fingerprint.of(rows)
        val ok = expected.get(q.name).forall(_ == fp)
        if (!ok) {
          failed += 1
          log(s"${q.name}: wrong result $fp, expected ${expected(q.name)}")
        }
        Sample(q, id, wall, cpu, ok, rows.length, Some(fp), Some(df), phases)
      case Left(why) =>
        failed += 1
        log(s"${q.name} failed: $why")
        Sample(q, id, wall, cpu, ok = false, 0, None, None, None)
    }
  }

  /** One untraced round. Its samples keep no DataFrame, so the live heap
    * does not grow with the number of queries a run manages.
    */
  private def round(queries: Seq[Query]): Seq[Sample] =
    queries.map(execute(_, traced = false).copy(df = None))

  /** Rounds until `seconds` have passed and at least `minSamples` queries
    * ran, but no longer than three times `seconds`; a round that starts
    * finishes.
    */
  private def loop(seconds: Double, minSamples: Int = 1)(each: => Seq[Sample]): Seq[Sample] = {
    val start = System.nanoTime()
    def elapsed = (System.nanoTime() - start) / 1e9
    val out = mutable.ArrayBuffer.empty[Sample]
    while (out.isEmpty || ((elapsed < seconds || out.size < minSamples) && elapsed < 3 * seconds))
      out ++= each
    out.toSeq
  }

  private def liveHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  def execute(): String = {
    log(s"${workload.name} seed=${opts.seed} seconds=${opts.seconds} trace=${opts.trace} nproc=$nproc")
    val setupStart = System.nanoTime()
    val p = workload.setup(spark, opts.seed, opts.tiny)
    log(f"setup in the fresh JVM: ${(System.nanoTime() - setupStart) / 1e9}%.3f s")
    val queries = p.queries

    val cold = execute(p.coldQuery, traced = false)

    val t0 = System.nanoTime()
    expected = queries.map { q =>
      val t = System.nanoTime()
      val fp = Fingerprint.of(Reference.expected(spark, q.oracle))
      log(f"oracle ${q.name}: ${(System.nanoTime() - t) / 1e9}%.2f s")
      q.name -> fp
    }.toMap
    val oracleS = (System.nanoTime() - t0) / 1e9
    log(f"oracle: $oracleS%.2f s, ${expected.map { case (k, v) => s"$k=$v" }.mkString(", ")}")
    cold.fingerprint.filter(_ != expected(cold.query.name)).foreach { fp =>
      failed += 1
      log(s"cold query returned $fp, expected ${expected(cold.query.name)}")
    }
    if (opts.tiny) queries.foreach { q =>
      val brute = Fingerprint.of(Reference.bruteForce(spark, q.oracle))
      val rewrite = Fingerprint.of(Reference.notExists(spark, q.oracle))
      if (brute != rewrite || brute != expected(q.name))
        problems += s"${q.name}: BruteForce $brute, NOT EXISTS $rewrite, expected ${expected(q.name)}"
    }

    // Plan check: one round, each query's executed plan must have the shape
    // the workload exists to measure.
    val checked = queries.map(execute(_, traced = false))
    val planProblems = checked.flatMap(s => s.df.toSeq.flatMap(df =>
      s.query.plan(df.queryExecution.executedPlan).map(m => s"${s.query.name}: $m")))
    problems ++= planProblems
    val algorithmOk = planProblems.isEmpty
    val resultRows = checked.map(_.resultRows).sum
    val skylineFraction = resultRows.toDouble / p.inputRows

    // Warm-up: JIT compilation and lazily built Spark state settle here; in
    // a fresh JVM latencies keep falling for the first seconds of queries.
    val warm = loop(if (opts.tiny) 0 else 2.0)(round(queries))
    log(f"warm-up: ${warm.size} queries, last ${warm.last.wallNs / 1e9}%.3f s")

    val metrics: Seq[(String, Double, String)] =
      if (!opts.trace) endToEnd(p, queries)
      else perLayer(p, queries, algorithmOk, cold)

    val env = Env.record(spark, nproc, opts)
    val details = Map(
      "workload" -> workload.name, "why" -> workload.why, "seed" -> opts.seed,
      "seconds" -> opts.seconds, "trace" -> opts.trace, "tiny" -> opts.tiny,
      "input_rows" -> p.inputRows, "result_rows_per_round" -> resultRows,
      "skyline_fraction" -> skylineFraction, "oracle_s" -> oracleS,
      "plan_ok" -> algorithmOk, "problems" -> problems.toSeq) ++ loopDetails
    println(s"env ${Stats.json(env)}")
    println(s"details ${Stats.json(details)}")
    metrics.foreach { case (n, v, u) => println(f"metric $n%-24s $v%.6g $u") }
    println(f"metric failed_frac              ${failed.toDouble / attempted}%.6g ratio")
    problems.foreach(m => log(s"PROBLEM $m"))
    p.release()

    val result = Map(
      "correct" -> (failed == 0 && problems.isEmpty),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> metrics.map { case (n, v, u) => n -> Map("value" -> v, "unit" -> u) }.toMap)
    writeResult(env, details, result)
    Stats.json(result)
  }

  private def writeResult(env: Map[String, Any], details: Map[String, Any], result: Map[String, Any]): Unit = {
    val dir = new java.io.File(opts.workDir, "results")
    dir.mkdirs()
    val f = new java.io.File(dir, s"${workload.name}-s${opts.seed}-t${if (opts.trace) 1 else 0}.json")
    val w = new java.io.PrintWriter(f, "UTF-8")
    try w.println(Stats.json(Map("env" -> env, "details" -> details, "result" -> result)))
    finally w.close()
  }

  // ---------------------------------------------------------------- untraced

  private def endToEnd(p: Prepared, queries: Seq[Query])
      : Seq[(String, Double, String)] = {
    // Live heap: the largest of a few readings after a full GC, taken
    // between queries at the start, about every third of the loop and at
    // its end.
    var heapMb = liveHeapMb()
    var lastHeapNs = System.nanoTime()
    // at least 30 samples, so the tail, with ten samples beyond it, is p66
    // or higher
    val samples = loop(opts.seconds, minSamples = if (opts.tiny) 1 else 30) {
      val r = round(queries)
      if (System.nanoTime() - lastHeapNs >= opts.seconds / 3 * 1e9) {
        heapMb = math.max(heapMb, liveHeapMb())
        lastHeapNs = System.nanoTime()
      }
      r
    }
    heapMb = math.max(heapMb, liveHeapMb())
    // Set-up time, taken now that the loop has warmed the JVM up: set-ups in
    // a fresh JVM also pay for its first Spark jobs and JIT compilation, and
    // swung with the machine's load far more than the warm queries did.
    // Median of three; each one replaces the views and is released.
    p.release()
    val setupS = (1 to 3).map { i =>
      val t0 = System.nanoTime()
      val again = workload.setup(spark, opts.seed, opts.tiny)
      val s = (System.nanoTime() - t0) / 1e9
      again.release()
      log(f"setup $i: $s%.3f s")
      s
    }
    val lat = samples.map(_.wallNs / 1e9)
    val n = lat.size
    val tail = Stats.tailPercentile(n)
    val sorted = lat.sorted
    val tailS = tail.fold(sorted.last)(pct => quantileAt(sorted, pct / 100.0))
    val tailName = tail.fold("max")(p => s"p$p")
    log(s"loop: $n queries, query_tail_s is $tailName")
    loopDetails = Map("loop_latencies_s" -> lat, "tail_percentile" -> tailName, "samples" -> n)
    Seq(
      ("query_p50_s", Stats.median(lat), "s"),
      ("query_tail_s", tailS, "s"),
      ("rows_per_s", p.inputRows / Stats.mean(lat), "rows/s"),
      ("cpu_s_per_query", samples.map(_.cpuNs).sum / 1e9 / n, "s"),
      ("setup_s", Stats.median(setupS), "s"),
      ("heap_live_mb", heapMb, "MB"))
  }

  /** Linear-interpolated quantile of sorted values (position q·(n−1)). */
  private def quantileAt(sorted: Seq[Double], q: Double): Double = {
    val pos = q * (sorted.size - 1)
    val lo = pos.floor.toInt
    val hi = math.min(lo + 1, sorted.size - 1)
    sorted(lo) + (pos - lo) * (sorted(hi) - sorted(lo))
  }

  // ------------------------------------------------------------------ traced

  /** Per-layer values of one traced query. */
  private def layers(s: Sample, stages: Seq[StageRecord], jobs: Int,
                     tracer: Tracer): Map[String, Double] = {
    val ph = s.phases.get
    val qe = s.df.get.queryExecution
    val plan = qe.executedPlan
    val roles = Plans.roles(plan)
    def namesOf(role: String): Set[String] = roles.filter(_._2 == role).map(_._1.nodeName).toSet
    val globalNames = namesOf("global")
    val localNames = namesOf("local")
    val singleNames = namesOf("single_dim")
    val exchanges = Plans.skylineExchanges(plan)
    def operatorLayer(st: StageRecord): Option[String] =
      if (st.scopes.exists(globalNames)) Some("global")
      else if (st.scopes.exists(localNames)) Some("local")
      else if (st.scopes.exists(singleNames)) Some("single_dim")
      else None
    // a stage whose output feeds a skyline stage only writes that
    // operator's exchange (it is the scan plus the exchange's map side)
    val feedsSkyline = stages.filter(operatorLayer(_).isDefined).flatMap(_.parents).toSet
    def layerOf(st: StageRecord): String =
      operatorLayer(st).getOrElse(if (feedsSkyline(st.stageId)) "exchange" else "other")
    val byLayer = stages.groupBy(layerOf)
    def of(layer: String): Seq[StageRecord] = byLayer.getOrElse(layer, Nil)

    // spans: query → parse/analyze/optimize/plan/execute → stages
    val root = tracer.record(0, "query", s.id, ph.start, ph.end)
    tracer.record(root, "parser.parse", s.id, ph.start, ph.parse)
    tracer.record(root, "rules.analyze", s.id, ph.parse, ph.analyze)
    tracer.record(root, "rules.optimize", s.id, ph.analyze, ph.optimize)
    tracer.record(root, "planner.plan", s.id, ph.optimize, ph.plan)
    val exec = tracer.record(root, "execute", s.id, ph.plan, ph.end)
    val intervals = stages.map { st =>
      val a = math.max(ph.plan, st.submitMs * 1000000L + ph.epochOffsetNs)
      val b = math.min(ph.end, math.max(a, st.completeMs * 1000000L + ph.epochOffsetNs))
      tracer.record(exec, s"stage.${layerOf(st)}", s.id, a, b)
      (layerOf(st), a, b)
    }
    // Self time: each instant of the execute span goes to the stages running
    // then, split evenly; instants with no stage running are scheduler time.
    val self = mutable.Map.empty[String, Double].withDefaultValue(0.0)
    val cuts = (intervals.flatMap(i => Seq(i._2, i._3)) ++ Seq(ph.plan, ph.end)).distinct.sorted
    cuts.sliding(2).foreach {
      case Seq(a, b) =>
        val running = intervals.filter(i => i._2 <= a && i._3 >= b && i._3 > i._2)
        if (running.isEmpty) self("sched") += (b - a)
        else running.foreach(i => self(i._1) += (b - a).toDouble / running.size)
      case _ =>
    }
    val wallMs = (ph.end - ph.start) / 1e6
    def ms(ns: Double): Double = ns / 1e6

    val localIn = roles.filter(_._2 == "local").map(_._1).map(rowsInto).sum
    val globalIsRoot = Plans.nodes(plan).headOption.exists(n =>
      Plans.isGlobal(n) || (n.nodeName == "Project" && Plans.children(n).exists(Plans.isGlobal)))
    def metric(e: org.apache.spark.sql.execution.SparkPlan, k: String): Double =
      e.metrics.get(k).map(_.value.toDouble).getOrElse(0.0)
    val singleStages = of("single_dim").sortBy(_.stageId)
    def wall(st: StageRecord): Double = (st.completeMs - st.submitMs).toDouble

    Map(
      "trace.query_ms" -> wallMs,
      "parser.parse_ms" -> ms(ph.parse - ph.start),
      "rules.analyze_ms" -> ms(ph.analyze - ph.parse),
      "rules.optimize_ms" -> ms(ph.optimize - ph.analyze),
      "rules.pushdown_hits" -> pushedBelowJoin(qe.optimizedPlan).toDouble,
      "planner.plan_ms" -> ms(ph.plan - ph.optimize),
      "local.busy_ms" -> of("local").map(_.busyMs).sum.toDouble,
      "local.max_task_ms" -> (0L +: of("local").map(_.maxTaskMs)).max.toDouble,
      "local.tasks" -> of("local").map(_.tasks).sum.toDouble,
      "local.rows_in" -> localIn.toDouble,
      "local.rows_out" -> of("local").map(_.shuffleWriteRecords).sum.toDouble,
      "local.self_ms" -> ms(self("local")),
      "exchange.rows" -> exchanges.map(metric(_, "shuffleRecordsWritten")).sum,
      "exchange.bitmap_rows" ->
        exchanges.filter(Plans.isIsNullExchange).map(metric(_, "shuffleRecordsWritten")).sum,
      "exchange.bytes" -> exchanges.map(metric(_, "shuffleBytesWritten")).sum,
      "exchange.write_ms" -> exchanges.map(metric(_, "shuffleWriteTime")).sum / 1e6,
      "exchange.fetch_wait_ms" -> exchanges.map(metric(_, "fetchWaitTime")).sum,
      "exchange.self_ms" -> ms(self("exchange")),
      "global.busy_ms" -> of("global").map(_.busyMs).sum.toDouble,
      "global.rows_in" -> of("global").map(_.shuffleReadRecords).sum.toDouble,
      "global.rows_out" -> (if (globalIsRoot) s.resultRows.toDouble else 0.0),
      "global.self_ms" -> ms(self("global")),
      "single_dim.pass1_ms" -> singleStages.headOption.map(wall).getOrElse(0.0),
      "single_dim.pass2_ms" -> singleStages.drop(1).map(wall).sum,
      "single_dim.self_ms" -> ms(self("single_dim")),
      "other.self_ms" -> ms(self("other")),
      "spark.sched_ms" -> ms(self("sched")),
      "spark.jobs" -> jobs.toDouble,
      "spark.stages" -> stages.size.toDouble,
    )
  }

  /** Rows flowing into a local skyline operator: the exchange's written
    * records, or the first row-count metric below it.
    */
  private def rowsInto(local: SparkPlan): Long =
    Plans.children(local).headOption.map {
      case e: org.apache.spark.sql.execution.exchange.ShuffleExchangeExec =>
        e.metrics.get("shuffleRecordsWritten").map(_.value).getOrElse(0L)
      case c =>
        Plans.nodes(c).iterator.flatMap(_.metrics.get("numOutputRows")).nextOption().map(_.value).getOrElse(0L)
    }.getOrElse(0L)

  /** Skyline operators the optimizer moved below a join. */
  private def pushedBelowJoin(plan: LogicalPlan): Int =
    plan.collect { case j: Join => j.children.map(_.collect { case s: SkylineOperator => s }.size).sum }.sum

  private def perLayer(p: Prepared, queries: Seq[Query], algorithmOk: Boolean, cold: Sample)
      : Seq[(String, Double, String)] = {
    val listener = new StageListener
    val tracer = new Tracer
    val tracedRounds = mutable.ArrayBuffer.empty[Map[String, Double]]
    val tracedWall = mutable.ArrayBuffer.empty[Double]
    val plainWall = mutable.ArrayBuffer.empty[Double]
    var gc = 0.0
    var allocMb = 0.0
    loop(opts.seconds) {
      val g0 = gcMs
      val a0 = threadBean.getTotalThreadAllocatedBytes
      sc.addSparkListener(listener)
      val traced = try queries.map { q =>
        val s = execute(q, traced = true)
        val group = s"perfbench-q${s.id}"
        if (!listener.awaitGroup(group)) log(s"listener missed the end of query ${s.id}")
        val (stages, jobs) = listener.take(group)
        (s, if (s.phases.isDefined) layers(s, stages, jobs, tracer) else Map.empty[String, Double])
      } finally sc.removeSparkListener(listener)
      gc += gcMs - g0
      allocMb += (threadBean.getTotalThreadAllocatedBytes - a0) / 1048576.0
      tracedRounds += traced.map(_._2).reduce((a, b) => (a.keySet ++ b.keySet).map(k =>
        k -> (a.getOrElse(k, 0.0) + b.getOrElse(k, 0.0))).toMap)
      tracedWall += traced.map(_._1.wallNs).sum / 1e6
      val plain = round(queries)
      plainWall += plain.map(_.wallNs).sum / 1e6
      traced.map(_._1) ++ plain
    }
    val n = tracedRounds.size
    log(s"traced loop: $n traced and ${plainWall.size} untraced rounds")
    def mean(k: String): Double = tracedRounds.map(_.getOrElse(k, 0.0)).sum / n

    val scanMs = Stats.median((1 to 5).map { _ =>
      val t0 = System.nanoTime(); p.input.count(); (System.nanoTime() - t0) / 1e6
    })
    val referenceMs = referenceQueryMs(p)
    val kernel = KernelReplay.run(p.input, p.dims, p.incomplete, opts.seed, reps = if (opts.tiny) 1 else 3)
    tracer.writeTo(new java.io.File(opts.workDir,
      s"traces/${workload.name}-s${opts.seed}.jsonl"))

    val wall = mean("trace.query_ms")
    val rowsIn = mean("local.rows_in")
    val out = Seq(
      ("cold.query_s", cold.wallNs / 1e9, "s"),
      ("parser.parse_ms", mean("parser.parse_ms"), "ms"),
      ("rules.analyze_ms", mean("rules.analyze_ms"), "ms"),
      ("rules.optimize_ms", mean("rules.optimize_ms"), "ms"),
      ("rules.pushdown_hits", mean("rules.pushdown_hits"), "count"),
      ("planner.plan_ms", mean("planner.plan_ms"), "ms"),
      ("planner.algorithm_ok", if (algorithmOk) 1.0 else 0.0, "bool"),
      ("scan.ms", scanMs, "ms"),
      ("scan.rows", p.input.count().toDouble, "rows"),
      ("local.busy_ms", mean("local.busy_ms"), "ms"),
      ("local.max_task_ms", mean("local.max_task_ms"), "ms"),
      ("local.tasks", mean("local.tasks"), "count"),
      ("local.rows_in", rowsIn, "rows"),
      ("local.rows_out", mean("local.rows_out"), "rows"),
      ("local.keep_ratio", if (rowsIn > 0) mean("local.rows_out") / rowsIn else 0.0, "ratio"),
      ("local.self_ms", mean("local.self_ms"), "ms"),
      ("exchange.rows", mean("exchange.rows"), "rows"),
      ("exchange.bitmap_rows", mean("exchange.bitmap_rows"), "rows"),
      ("exchange.bytes", mean("exchange.bytes"), "bytes"),
      ("exchange.write_ms", mean("exchange.write_ms"), "ms"),
      ("exchange.fetch_wait_ms", mean("exchange.fetch_wait_ms"), "ms"),
      ("exchange.self_ms", mean("exchange.self_ms"), "ms"),
      ("global.busy_ms", mean("global.busy_ms"), "ms"),
      ("global.rows_in", mean("global.rows_in"), "rows"),
      ("global.rows_out", mean("global.rows_out"), "rows"),
      ("global.share", if (wall > 0) mean("global.busy_ms") / wall else 0.0, "ratio"),
      ("global.self_ms", mean("global.self_ms"), "ms"),
      ("single_dim.pass1_ms", mean("single_dim.pass1_ms"), "ms"),
      ("single_dim.pass2_ms", mean("single_dim.pass2_ms"), "ms"),
      ("single_dim.self_ms", mean("single_dim.self_ms"), "ms"),
      ("other.self_ms", mean("other.self_ms"), "ms"),
      ("kernel.bnl_ms", kernel.bnlMs, "ms"),
      ("kernel.all_pairs_ms", kernel.allPairsMs, "ms"),
      ("kernel.bitmap_groups", kernel.bitmapGroups.toDouble, "count"),
      ("kernel.dominates_ns", kernel.dominatesNs, "ns"),
      ("jvm.gc_ms", gc / n, "ms"),
      ("jvm.alloc_mb", allocMb / n, "MB"),
      ("spark.sched_ms", mean("spark.sched_ms"), "ms"),
      ("spark.jobs", mean("spark.jobs"), "count"),
      ("spark.stages", mean("spark.stages"), "count"),
      ("reference.query_ms", referenceMs, "ms"),
      ("trace.query_ms", wall, "ms"),
      ("trace.overhead_ms", Stats.median(tracedWall.toSeq) - Stats.median(plainWall.toSeq), "ms"),
    )
    if (opts.tiny) checkInvariants(out.map(m => m._1 -> m._2).toMap, kernel, tracer, p)
    out
  }

  /** `ReferenceSkyline.rewrite` run by stock Spark over a fixed-size slice
    * of the main input: the paper's comparator, and a control for drift
    * between machines. Median of three.
    */
  private def referenceQueryMs(p: Prepared): Double = {
    val view = "perfbench_reference_slice"
    val slice = p.input.limit(if (opts.tiny) 300 else 2000).cache()
    slice.count()
    slice.createOrReplaceTempView(view)
    val sql = ReferenceSkyline.rewrite(view, slice.columns.toSeq, p.dims, nullAware = p.incomplete)
    try Stats.median((1 to 3).map { _ =>
      val t0 = System.nanoTime(); spark.sql(sql).collect(); (System.nanoTime() - t0) / 1e6
    })
    finally { slice.unpersist(blocking = true); spark.catalog.dropTempView(view) }
  }

  /** The benchmark's own consistency checks, run by the self-test. Row
    * counts are compared on the single-query workloads, where the operators
    * and the replayed kernels see the same input.
    */
  private def checkInvariants(m: Map[String, Double], kernel: KernelReplay.Result,
                              tracer: Tracer, p: Prepared): Unit = {
    def check(ok: Boolean, what: => String): Unit = if (!ok) problems += s"invariant: $what"
    if (p.queries.size == 1) {
      val resultRows = expected(p.queries.head.name).rows
      check(m("local.rows_out") == m("global.rows_in"),
        s"local.rows_out ${m("local.rows_out")} != global.rows_in ${m("global.rows_in")}")
      check(m("global.rows_out") == resultRows, s"global.rows_out ${m("global.rows_out")} != result rows $resultRows")
      check(kernel.localOut == m("local.rows_out"), s"kernel local rows ${kernel.localOut} != local.rows_out")
      check(kernel.globalOut == resultRows, s"kernel global rows ${kernel.globalOut} != result rows $resultRows")
      val exchanged = m("local.rows_out") + (if (p.incomplete) m("scan.rows") else 0)
      check(m("exchange.rows") == exchanged, s"exchange.rows ${m("exchange.rows")} != $exchanged")
      val bitmapRows = if (p.incomplete) m("scan.rows") else 0.0
      check(m("exchange.bitmap_rows") == bitmapRows,
        s"exchange.bitmap_rows ${m("exchange.bitmap_rows")} != $bitmapRows")
    }
    // Span self times: a span's duration minus the part its children cover.
    // Stages may run side by side; they share the instants they overlap, so
    // together they account for the union of their intervals.
    def covered(spans: Seq[Span]): Long =
      spans.map(s => (s.startNs, s.endNs)).sorted.foldLeft((0L, Long.MinValue)) {
        case ((sum, end), (a, b)) => if (b <= end) (sum, end) else (sum + b - math.max(a, end), b)
      }._1
    tracer.all.groupBy(_.query).foreach { case (q, spans) =>
      val children = spans.groupBy(_.parent).withDefaultValue(Nil)
      val (stages, others) = spans.partition(_.name.startsWith("stage."))
      val selves = others.map(s => s.durationNs - covered(children(s.id)))
      val total = selves.sum + covered(stages)
      val root = spans.find(_.parent == 0).get
      check(selves.forall(_ >= 0), s"query $q has a negative span self time")
      check(total <= root.durationNs, s"query $q: self times $total ns exceed wall ${root.durationNs} ns")
    }
  }
}

/** The settings a parent and a child run must share. */
object Env {
  def record(spark: SparkSession, nproc: Int, opts: Main.Options): Map[String, Any] = {
    val conf = spark.conf
    def c(k: String): String = conf.getOption(k).getOrElse("(unset)")
    Map(
      "nproc" -> nproc,
      "master" -> spark.sparkContext.master,
      "spark.sql.shuffle.partitions" -> c("spark.sql.shuffle.partitions"),
      "spark.sql.adaptive.enabled" -> c("spark.sql.adaptive.enabled"),
      "spark.sql.adaptive.coalescePartitions.enabled" -> c("spark.sql.adaptive.coalescePartitions.enabled"),
      "spark.sql.adaptive.advisoryPartitionSizeInBytes" -> c("spark.sql.adaptive.advisoryPartitionSizeInBytes"),
      "spark.sql.adaptive.skewJoin.enabled" -> c("spark.sql.adaptive.skewJoin.enabled"),
      "spark.sql.adaptive.autoBroadcastJoinThreshold" -> c("spark.sql.adaptive.autoBroadcastJoinThreshold"),
      "spark.sql.autoBroadcastJoinThreshold" -> c("spark.sql.autoBroadcastJoinThreshold"),
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "spark_version" -> spark.version,
      "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "source" -> opts.sourceId)
  }
}
