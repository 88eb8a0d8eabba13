package perfbench

import java.util.SplittableRandom

/** Seeded anti-correlated points in [0, 1]^d, built as in Börzsönyi,
  * Kossmann and Stocker, "The Skyline Operator" (ICDE 2001).
  *
  * Each point starts on the diagonal at (v, ..., v), with `v` drawn from a
  * normal distribution around 0.5, so the coordinate sum sits near d/2.
  * Random amounts are then moved between neighbouring coordinates, which
  * keeps the sum and spreads the point across the plane. A point that leaves
  * the unit cube is drawn again. Points near one hyperplane are mostly
  * mutually incomparable; with a spread of 0.01 around the diagonal about
  * 85% of 3,000–6,000 points in 4 dimensions are in the skyline.
  *
  * The benchmark generates the rows itself; the program receives only the
  * generated values.
  */
object AntiCorrelated {

  /** Standard deviation of the diagonal position `v`. */
  private val Spread = 0.01

  def points(n: Int, dims: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new SplittableRandom(seed)
    val out = new Array[Array[Double]](n)
    var k = 0
    while (k < n) {
      val x = new Array[Double](dims)
      var ok = false
      while (!ok) {
        val v = 0.5 + Spread * rnd.nextGaussian()
        val l = math.max(0.0, if (v <= 0.5) v else 1.0 - v)
        java.util.Arrays.fill(x, v)
        var i = 0
        while (i < dims) {
          val h = -l + 2 * l * rnd.nextDouble()
          x(i) += h
          x((i + 1) % dims) -= h
          i += 1
        }
        ok = x.forall(c => c >= 0.0 && c <= 1.0)
      }
      out(k) = x
      k += 1
    }
    out
  }
}
