package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.SkylineExtensions
import BenchUtil.BenchTable

/** spark-submit entry point for the reproduced evaluation tables.
  *
  * {{{
  *   spark-submit --class repro.bench.Jobs target/scala-2.13/repro_2.13-*.jar table3 table5
  * }}}
  *
  * The arguments name the tables to run (`table3` … `table12`,
  * `appendixE`); no argument runs all of them. The job builds its own
  * session with the skyline extensions installed (the same injection a
  * cluster deployment would configure via
  * `--conf spark.sql.extensions=repro.core.SkylineExtensions`), runs each
  * table's benchmark grid and prints the paper-style result table.
  */
object Jobs {

  private def table(name: String, run: SparkSession => BenchTable): (String, SparkSession => Unit) =
    name -> (s => run(s).report(s"$name.md"))

  /** Each table's name and how to run and report it, in the paper's order. */
  val tables: Seq[(String, SparkSession => Unit)] = Seq(
    table("table3", Tables.table3), table("table4", Tables.table4),
    table("table5", Tables.table5), table("table6", Tables.table6),
    table("table7", Tables.table7), table("table8", Tables.table8),
    table("table9", Tables.table9), table("table10", Tables.table10),
    table("table11", Tables.table11), table("table12", Tables.table12),
    "appendixE" -> { (s: SparkSession) =>
      Tables.musicBrainz(s, incomplete = false).report("appendixE_complete.md")
      Tables.musicBrainz(s, incomplete = true).report("appendixE_incomplete.md")
    },
  )

  /** The tables named by `args`, or all of them for no argument; an unknown
    * name is an error that lists the valid ones.
    */
  def select(args: Seq[String]): Seq[(String, SparkSession => Unit)] =
    if (args.isEmpty) tables
    else args.map { name =>
      tables.find(_._1 == name).getOrElse(throw new IllegalArgumentException(
        s"unknown table '$name'; expected one of: ${tables.map(_._1).mkString(" ")}"))
    }

  def main(args: Array[String]): Unit = {
    val selected = select(args.toSeq)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("skyline-" + (if (args.isEmpty) "all-tables" else args.mkString("-")))
      .config("spark.ui.enabled", "false")
      .withExtensions(new SkylineExtensions)
      .getOrCreate()
    try selected.foreach { case (_, run) => run(spark) } finally spark.stop()
  }
}
