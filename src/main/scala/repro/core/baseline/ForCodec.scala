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

  def compress(values: Array[Long]): LecoFixCompressed = {
    val size =
      if (partitionSize > 0) partitionSize
      else Partitioner.searchFixedSize(values, ForCodec.costAt)
    new LecoFixCompressed(values.length, size, Partitioner.encodeFixed(values, size)(LecoPartition.encodeConstant))
  }
}

object ForCodec {
  def costAt(sample: Array[Long], l: Int): Long = {
    val line = new LineFit
    Partitioner.fixedCost(sample, l) { (s, e) =>
      Codec.SimpleHeaderBytes + BitPack.payloadBytes(e - s, line.window(sample, s, e, 0.0).width)
    }
  }
}
