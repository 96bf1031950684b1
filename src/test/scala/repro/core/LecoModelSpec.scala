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

  test("a partition carries its model word exactly when its slope is not 0; a flat one is a FOR frame") {
    ByteLayoutSpec.check(Prop.forAllNoShrink(values, flat, ByteLayoutSpec.values.suchThat(_.nonEmpty)) { (a, b, c) =>
      LecoPartition.encode(b, 0, b.length).slope == 0 && Seq(a, b, c).forall { vals =>
        val p = LecoPartition.encode(vals, 0, vals.length)
        val bytes = bytesOf(p)
        val flagged = (bytes(FlagByte) & 0x80) != 0
        flagged == (p.slope != 0) && bytes.length == p.sizeBytes &&
          (flagged || bytes.sameElements(bytesOf(LecoPartition.encodeConstant(vals, 0, vals.length))))
      }
    })
  }

  test("a model word of slope 0 is rejected: a flat partition carries none") {
    val frame = bytesOf(LecoPartition.encodeConstant(Array.tabulate(100)(j => 5L + j % 3), 0, 100))
    for (word <- Seq(0L, 7L /* shift 7, phase 0 */)) {
      val flagged = ByteBuffer.allocate(frame.length + 8).put(frame, 0, FlagByte)
        .put((frame(FlagByte) | 0x80).toByte).putLong(word).put(frame, FlagByte + 1, frame.length - FlagByte - 1)
      val e = intercept[IllegalArgumentException](LecoPartition.read(ByteBuffer.wrap(flagged.array())))
      assert(e.getMessage.contains("model word of slope 0"), e.getMessage)
    }
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
  /** Offset of the width byte, whose high bit flags the model word: after `[len:i32][anchor:i64]`. */
  val FlagByte = 12

  def bytesOf(p: LecoPartition): Array[Byte] = {
    val buf = ByteBuffer.allocate(p.sizeBytes.toInt)
    p.writeTo(buf)
    buf.array()
  }

  /** Inputs whose least-squares slope is 0: a constant, or values that
    * read the same backwards, small enough that the sums are exact in
    * `Double` and cancel.
    */
  val flat: Gen[Array[Long]] = for {
    n      <- Gen.choose(1, 3000)
    offset <- Gen.choose(-(1L << 20), 1L << 20)
    period <- Gen.oneOf(1, 2, 3, 7, 64)
    seed   <- Gen.long
  } yield {
    val r = new scala.util.Random(seed)
    val noise = Array.fill(period)(if (period == 1) 0L else r.nextInt(1 << 12).toLong)
    Array.tabulate(n)(j => offset + noise(math.min(j, n - 1 - j) % period))
  }

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
