package repro.core

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.{SparkPlan, SparkStrategy}
import repro.core.physical._

/** Confs controlling skyline planning (all runtime-settable). */
object SkylineConf {
  /** auto | distributed-complete | non-distributed-complete |
    * distributed-incomplete — `auto` is Listing 8; the explicit values force
    * one of the paper's four benchmark algorithms (§6.3; "reference" is not
    * an algorithm of ours but the plain-SQL rewrite).
    */
  val Algorithm = "spark.sql.skyline.algorithm"

  /** The accepted values of [[Algorithm]]; any other value is an error. */
  val Algorithms: Seq[String] =
    Seq("auto", "distributed-complete", "non-distributed-complete", "distributed-incomplete")

  /** Enable the 1-dimension MIN/MAX rewrite of §5.4 (default true). */
  val SingleDimOpt = "spark.sql.skyline.singleDimOptimization"

  /** Enable pushing the skyline into non-reductive joins (§5.4, default true). */
  val JoinPushdown = "spark.sql.skyline.joinPushdown"
}

/** Physical planning for [[SkylineOperator]] — the algorithm selection of
  * §5.5 (Listing 8).
  *
  * The complete algorithm may be used when the query says `COMPLETE` or all
  * skyline dimensions are non-nullable; otherwise the bitmap-partitioned
  * incomplete pair of nodes is chosen. Both variants split the work into a
  * distributed local node and an AllTuples global node. A single MIN/MAX
  * dimension short-circuits to [[SingleDimSkylineExec]] in every mode
  * (matching the paper's Table 5, where all specialized algorithms collapse
  * to ~2% of the reference at one dimension).
  */
case class SkylineStrategy(session: SparkSession) extends SparkStrategy {

  override def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
    case SkylineOperator(distinct, complete, dims, child) =>
      val algorithm = session.conf.get(SkylineConf.Algorithm, "auto")
      if (!SkylineConf.Algorithms.contains(algorithm)) {
        throw new IllegalArgumentException(
          s"unknown ${SkylineConf.Algorithm} value '$algorithm'; expected one of: " +
            SkylineConf.Algorithms.mkString(" | "))
      }
      val singleDimOk =
        session.conf.get(SkylineConf.SingleDimOpt, "true").toBoolean &&
          dims.lengthCompare(1) == 0 && dims.head.direction != Direction.Diff &&
          !distinct
      val completeOk = complete || dims.forall(d => !d.child.nullable)

      def incompletePair: SparkPlan = {
        if (dims.length > KeyStore.MaxMaskDimensions) {
          throw new IllegalArgumentException(
            DominanceChecker.tooManyIncompleteDimensions(dims.length))
        }
        IncompleteGlobalSkylineExec(dims, distinct,
          IncompleteLocalSkylineExec(dims, distinct, planLater(child)))
      }

      def planned: SparkPlan = algorithm match {
        case "distributed-complete" =>
          if (singleDimOk) SingleDimSkylineExec(dims.head, incomplete = false, planLater(child))
          else GlobalSkylineExec(dims, distinct,
            LocalSkylineExec(dims, distinct, planLater(child)))
        case "non-distributed-complete" =>
          if (singleDimOk) SingleDimSkylineExec(dims.head, incomplete = false, planLater(child))
          else GlobalSkylineExec(dims, distinct, planLater(child))
        case "distributed-incomplete" =>
          if (singleDimOk) SingleDimSkylineExec(dims.head, incomplete = true, planLater(child))
          else incompletePair
        case _ => // auto — Listing 8
          if (singleDimOk) {
            SingleDimSkylineExec(dims.head, incomplete = !completeOk, planLater(child))
          } else if (completeOk) {
            GlobalSkylineExec(dims, distinct,
              LocalSkylineExec(dims, distinct, planLater(child)))
          } else incompletePair
      }
      planned :: Nil
    case _ => Nil
  }
}
