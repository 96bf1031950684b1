package repro

package object core {
  /** LeCo-fix and FOR: fixed-length partitions of [[LecoPartition]]s. */
  type LecoFixCompressed = FixedPartitions[LecoPartition]
}
