package org.apache.spark.sql

/** The earlier name of [[catalyst.parser.skyline.Bridge]]; `perfbench/`
  * still imports it from here.
  */
package object skyline {
  val Bridge: catalyst.parser.skyline.Bridge.type = catalyst.parser.skyline.Bridge
}
