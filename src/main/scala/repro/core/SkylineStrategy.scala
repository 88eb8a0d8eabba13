package repro.core

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.{SparkPlan, SparkStrategy}
import repro.core.physical._

/** The conf controlling skyline planning (runtime-settable). */
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
}

/** Physical planning for [[SkylineOperator]] — the algorithm selection of
  * §5.5 (Listing 8).
  *
  * The [[SkylineConf.Algorithm]] value decides two things: the complete or
  * the incomplete algorithm, and distributed (a local node under the
  * AllTuples global node) or not. `auto` is Listing 8: the complete
  * algorithm when the query says `COMPLETE` or all skyline dimensions are
  * non-nullable, otherwise the bitmap-partitioned incomplete one; always
  * distributed. A single MIN/MAX dimension short-circuits to
  * [[SingleDimSkylineExec]] in every mode (matching the paper's Table 5,
  * where all specialized algorithms collapse to ~2% of the reference at one
  * dimension).
  */
case class SkylineStrategy(session: SparkSession) extends SparkStrategy {

  override def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
    case SkylineOperator(distinct, complete, dims, child) =>
      val (completeAlgorithm, distributed) = session.conf.get(SkylineConf.Algorithm, "auto") match {
        case "auto"                     => (complete || dims.forall(d => !d.child.nullable), true)
        case "distributed-complete"     => (true, true)
        case "non-distributed-complete" => (true, false)
        case "distributed-incomplete"   => (false, true)
        case other =>
          throw new IllegalArgumentException(
            s"unknown ${SkylineConf.Algorithm} value '$other'; expected one of: " +
              SkylineConf.Algorithms.mkString(" | "))
      }
      val incomplete = !completeAlgorithm
      val singleDim =
        dims.lengthCompare(1) == 0 && dims.head.direction != Direction.Diff && !distinct
      val planned =
        if (singleDim) {
          SingleDimSkylineExec(dims.head, incomplete, planLater(child))
        } else {
          if (incomplete && dims.length > KeyStore.MaxMaskDimensions) {
            throw new IllegalArgumentException(KeyStore.tooManyIncompleteDimensions(dims.length))
          }
          val input = planLater(child)
          val local =
            if (distributed) SkylineExec(dims, distinct, incomplete, global = false, merge = false, input)
            else input
          SkylineExec(dims, distinct, incomplete, global = true,
            merge = distributed && !incomplete, local)
        }
      planned :: Nil
    case _ => Nil
  }
}
