package perfbench

import org.apache.spark.sql.catalyst.expressions.IsNull
import org.apache.spark.sql.catalyst.plans.physical.{AllTuples, ClusteredDistribution, HashPartitioning, SinglePartition, UnspecifiedDistribution}
import org.apache.spark.sql.execution.{InputAdapter, SparkPlan, WholeStageCodegenExec}
import org.apache.spark.sql.execution.adaptive.{AQEShuffleReadExec, AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.exchange.{ReusedExchangeExec, ShuffleExchangeExec}
import org.apache.spark.sql.execution.joins.BaseJoinExec

/** Reading the executed plan from outside the program.
  *
  * Skyline operators are recognised by their package and given a role by
  * the distribution they require and where they sit, not by class name:
  * `global` requires all tuples in one partition; `local` feeds a global
  * node through an exchange; anything else from the program is a
  * `single_dim` pass (the only other skyline operator the planner emits).
  */
object Plans {

  /** The operator under the AQE, query-stage and codegen wrappers. */
  def unwrap(p: SparkPlan): SparkPlan = p match {
    case a: AdaptiveSparkPlanExec => unwrap(a.executedPlan)
    case s: QueryStageExec        => unwrap(s.plan)
    case r: AQEShuffleReadExec    => unwrap(r.child)
    case r: ReusedExchangeExec    => unwrap(r.child)
    case w: WholeStageCodegenExec => unwrap(w.child)
    case i: InputAdapter          => unwrap(i.child)
    case other                    => other
  }

  def children(p: SparkPlan): Seq[SparkPlan] = unwrap(p).children.map(unwrap)

  def nodes(p: SparkPlan): Seq[SparkPlan] = {
    val u = unwrap(p)
    u +: children(u).flatMap(nodes)
  }

  def isSkyline(p: SparkPlan): Boolean = p.getClass.getName.startsWith("repro.core.")

  def isGlobal(p: SparkPlan): Boolean =
    isSkyline(p) && p.requiredChildDistribution == Seq(AllTuples)

  /** The skyline operator feeding `global` through an exchange, with that
    * exchange.
    */
  def localBelow(global: SparkPlan): Option[(ShuffleExchangeExec, SparkPlan)] =
    children(global).collectFirst {
      case e: ShuffleExchangeExec => children(e).find(isSkyline).map(e -> _)
    }.flatten

  /** Role of each skyline operator in the plan: global, local or single_dim. */
  def roles(plan: SparkPlan): Seq[(SparkPlan, String)] = {
    val all = nodes(plan).filter(isSkyline)
    val globals = all.filter(isGlobal)
    val locals = globals.flatMap(localBelow).map(_._2)
    all.map { n =>
      n -> (if (globals.exists(_ eq n)) "global" else if (locals.exists(_ eq n)) "local" else "single_dim")
    }
  }

  /** Exchanges Spark inserted for a skyline operator's required
    * distribution (the exchange directly under a skyline node).
    */
  def skylineExchanges(plan: SparkPlan): Seq[ShuffleExchangeExec] =
    nodes(plan).filter(isSkyline).flatMap(children).collect { case e: ShuffleExchangeExec => e }
      .distinct

  /** The hash exchange on `IsNull` of the nullable dims that groups rows
    * by null bitmap for the incomplete local step.
    */
  def isIsNullExchange(e: SparkPlan): Boolean = e match {
    case s: ShuffleExchangeExec => s.outputPartitioning match {
      case h: HashPartitioning => h.expressions.nonEmpty && h.expressions.forall(_.isInstanceOf[IsNull])
      case _                   => false
    }
    case _ => false
  }

  private def distributed(plan: SparkPlan, incomplete: Boolean): Seq[String] = {
    val chains = nodes(plan).filter(isGlobal).flatMap(g => localBelow(g).map { case (e, l) => (e, l) })
    val ok = chains.exists { case (e, l) =>
      val singlePartition = e.outputPartitioning == SinglePartition
      val localShape =
        if (incomplete) l.requiredChildDistribution match {
          case Seq(ClusteredDistribution(exprs, _, _)) =>
            exprs.forall(_.isInstanceOf[IsNull]) && children(l).exists(isIsNullExchange)
          case _ => false
        }
        else l.requiredChildDistribution == Seq(UnspecifiedDistribution) &&
          !children(l).exists(isIsNullExchange)
      singlePartition && localShape
    }
    val kind = if (incomplete) "incomplete local -> IsNull hash exchange" else "complete local"
    if (ok) Nil
    else Seq(s"expected $kind -> single-partition exchange -> global skyline, got:\n" +
      nodes(plan).map(_.nodeName).mkString(" / "))
  }

  val completeDistributed: SparkPlan => Seq[String] = distributed(_, incomplete = false)
  val incompleteDistributed: SparkPlan => Seq[String] = distributed(_, incomplete = true)

  val singleDim: SparkPlan => Seq[String] = plan =>
    if (roles(plan).map(_._2) == Seq("single_dim")) Nil
    else Seq("expected one single-dimension skyline operator, got: " +
      nodes(plan).map(_.nodeName).mkString(" / "))

  val skylineBelowJoin: SparkPlan => Seq[String] = plan => {
    val joins = nodes(plan).collect { case j: BaseJoinExec => j }
    val sky = nodes(plan).filter(isSkyline)
    val below = sky.nonEmpty &&
      sky.forall(s => joins.exists(j => j.children.flatMap(nodes).exists(_ eq s)))
    if (below) Nil
    else Seq("expected the skyline pushed below the outer join, got: " +
      nodes(plan).map(_.nodeName).mkString(" / "))
  }

  val anySkyline: SparkPlan => Seq[String] = plan =>
    if (nodes(plan).exists(isSkyline)) Nil
    else Seq("no skyline operator in the executed plan")
}
