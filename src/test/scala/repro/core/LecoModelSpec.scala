package repro.core

import java.nio.ByteBuffer
import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.lecoformat.TimeOfDayPredicateSpec

/** The integer model round-trips at the edges of its fixed point: slopes
  * from 2^-40 to 2^62 of either sign, lengths where `|slope|·(len − 1)`
  * reaches its limit, and values over the whole signed range. Every read
  * path of a LeCo or FOR partition — `decodeInto`, `get`, the paged
  * dictionary's `getAt`, `read` of its bytes and `scanInto` under a range or
  * a remainder window — returns what a brute-force test of the input does.
  */
class LecoModelSpec extends AnyFunSuite {
  import LecoModelSpec._

  test("decodeInto, get, getAt, read and scan return the input at the fixed-point limits") {
    val cases = for {
      vals <- values
      pred <- Gen.oneOf(TimeOfDayPredicateSpec.windows, TimeOfDayPredicateSpec.ranges(vals))
      base <- Gen.choose(0, 1000)
    } yield (vals, pred, base)
    ByteLayoutSpec.check(Prop.forAllNoShrink(cases) { case (vals, pred, base) =>
      Seq(LecoPartition.encode(vals, 0, vals.length), LecoPartition.encodeConstant(vals, 0, vals.length)).forall { p =>
        val out = new Array[Long](vals.length)
        p.decodeInto(out, 0)
        val bytes = ByteBuffer.allocate(p.sizeBytes.toInt)
        p.writeTo(bytes)
        // a source padded with zeros past the partition's end, as a pool's last page is
        val source = (off: Long, len: Int) => java.util.Arrays.copyOfRange(bytes.array(), off.toInt, off.toInt + len)
        val back = LecoPartition.read(ByteBuffer.wrap(bytes.array()))
        val scanned = new scala.collection.mutable.ArrayBuilder.ofInt
        p.scanInto(pred, base, scanned)
        out.sameElements(vals) && vals.indices.forall(j => p.get(j) == vals(j) && back.get(j) == vals(j)) &&
          vals.indices.forall(j => LecoPartition.getAt(source, 0, j) == vals(j)) &&
          scanned.result().sameElements(vals.indices.filter(j => pred.test(vals(j))).map(base + _))
      }
    })
  }

  test("a slope beyond the fixed-point limit saturates and still round-trips") {
    val vals = Array.tabulate(5)(j => j.toLong << 60)
    val p = LecoPartition.encode(vals, 0, vals.length)
    assert(p.slope == LineFit.slopeLimit(vals.length) && p.shift == 0)
    val out = new Array[Long](vals.length)
    p.decodeInto(out, 0)
    assert(out.sameElements(vals))
  }

  test("a header outside the fixed-point limits is rejected") {
    val p = LecoPartition.encode(Array.tabulate(100)(j => 3L * j + j % 5), 0, 100)
    intercept[IllegalArgumentException](p.copy(slope = LineFit.slopeLimit(100) + 1))
    intercept[IllegalArgumentException](p.copy(phase = 1L << p.shift))
    intercept[IllegalArgumentException](p.copy(shift = 63))
  }
}

object LecoModelSpec {
  /** `±2^e·(1 + u)` for `e` in `[-40, 61]`, up to `2^62`. */
  val slope: Gen[Double] = for {
    e    <- Gen.choose(-40, 61)
    u    <- Gen.choose(0.0, 1.0)
    sign <- Gen.oneOf(1.0, -1.0)
  } yield sign * math.scalb(1.0 + u, e)

  /** Lengths where `|θ1|·(len − 1)` crosses 2^62, where the slope field's
    * limit gives way to the product's (len − 1 = 2^13), short ones, and any.
    */
  def length(t1: Double): Gen[Int] = {
    val atProduct = math.max(1.0, math.min(20000.0, math.scalb(1.0, 62) / math.abs(t1))).toInt
    Gen.oneOf(Gen.choose(atProduct - 1, atProduct + 1).map(math.max(1, _)), Gen.oneOf(1, 2, 3, 8192, 8193, 8194),
              Gen.choose(1, 20000))
  }

  /** `offset + floor(θ1·j)`, wrapped, plus no noise, noise of up to 2^k, or full-range values. */
  val values: Gen[Array[Long]] = for {
    t1     <- slope
    n      <- length(t1)
    offset <- Gen.long
    noise  <- Gen.oneOf(Gen.const(0), Gen.choose(1, 62), Gen.const(64))
    seed   <- Gen.long
  } yield {
    val r = new scala.util.Random(seed)
    val step = BigDecimal(t1)
    Array.tabulate(n) { j =>
      val line = offset + (step * j).setScale(0, BigDecimal.RoundingMode.FLOOR).toBigInt.toLong
      noise match {
        case 0  => line
        case 64 => r.nextLong()
        case k  => line + (r.nextLong() >>> (64 - k))
      }
    }
  }
}
