package repro.core.baseline

import repro.core._

/** Frame-of-Reference (FOR): each fixed-length frame stores its minimum plus
  * bit-packed non-negative offsets. Under LeCo this is the constant-model
  * special case (§2), and so it is: a LeCo-fix layout of θ1 = 0 partitions
  * (`LecoPartition.encodeConstant`). It is the random-access speed floor the
  * paper compares against.
  */
final class ForCodec(val partitionSize: Int = 0) extends IntCodec {
  val name = "FOR"

  def compress(values: Array[Long]): LecoFixCompressed = FixedPartitions.encode(
    values, Partitioner.fixedSize(values, partitionSize, ForCodec.costAt))(LecoPartition.encoder(fit = false))
}

object ForCodec {
  val costAt: SizeCost = new SizeCost(Codec.SimpleHeaderBytes) {
    def on(values: Array[Long]): (Int, Int) => Long = {
      val line = new LineFit
      (s, e) => Codec.SimpleHeaderBytes + BitPack.payloadBytes(e - s, line.window(values, s, e, 0L, 0).width)
    }
  }
}
