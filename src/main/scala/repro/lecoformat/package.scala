package repro

package object lecoformat {
  /** A decoded column chunk is its codec's in-memory representation. */
  type ColumnChunk = repro.core.CompressedInts
  type ScanPredicate = repro.core.ScanPredicate
}
