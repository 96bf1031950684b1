package repro.lsm

import repro.dict.LruBlockCache

/** Seek path over one SSTable with a byte-budgeted LRU block cache — the
  * end-to-end harness for the §5.2 experiment. The index block is pinned
  * (as in the paper's `pin_l0_filter_and_index_blocks_in_cache` setting),
  * so its size is charged against the cache budget and only the remainder
  * holds data blocks of [[SSTable.BlockSize]]. Block-cache misses read the
  * file and are additionally charged 100 µs of modeled direct-I/O time
  * (DESIGN.md).
  */
final class MiniLsm(table: SSTable, val index: IndexBlock, cacheBudgetBytes: Long)
    extends LruBlockCache(cacheBudgetBytes - index.sizeBytes, SSTable.BlockSize, missLatencyNanos = 100_000) {

  protected def load(b: Int): Array[Byte] = table.readBlock(b)

  /** Returns the value for the smallest key >= `key` (a non-empty Seek). */
  def seek(key: String): Array[Byte] = {
    var b = index.findBlock(key)
    while (b < table.numBlocks) {
      val v = table.searchBlock(block(b), key)
      if (v != null) return v
      b += 1
    }
    null
  }
}
