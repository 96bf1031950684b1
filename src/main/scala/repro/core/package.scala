package repro

package object core {
  /** LeCo-fix and FOR: fixed-length partitions of [[LecoPartition]]s. */
  type LecoFixCompressed = FixedPartitions[LecoPartition]

  /** A signed diff as an unsigned code, small for either sign: Delta's packed
    * diffs, whose width `Partitioner.DeltaMode` and `DeltaFixCodec.costAt` take.
    */
  @inline def zigzag(d: Long): Long = (d << 1) ^ (d >> 63)
}
