package repro.dict

/** An LRU cache of as many `blockBytes`-byte blocks as `budgetBytes` holds,
  * at least one, by block number: the buffer pool's pages and the mini-LSM's
  * data blocks. Because the host OS page cache makes re-reads memory-speed,
  * each miss is charged `missLatencyNanos` of modeled direct-I/O time into
  * `modeledIoNanos`, and benches report composite time = measured CPU +
  * modeled I/O (DESIGN.md: hardware substitution).
  */
abstract class LruBlockCache(budgetBytes: Long, blockBytes: Int, val missLatencyNanos: Long) {
  var misses: Long = 0
  private val capacity = math.max(1, (budgetBytes / blockBytes).toInt)

  private val lru = new java.util.LinkedHashMap[Int, Array[Byte]](16, 0.75f, true) {
    override def removeEldestEntry(e: java.util.Map.Entry[Int, Array[Byte]]): Boolean =
      size() > capacity
  }

  /** Reads block `id` on a miss. */
  protected def load(id: Int): Array[Byte]

  def modeledIoNanos: Long = misses * missLatencyNanos

  /** Block `id`, from the cache, or loaded into it. */
  def block(id: Int): Array[Byte] = {
    val cached = lru.get(id)
    if (cached != null) cached
    else {
      misses += 1
      val b = load(id)
      lru.put(id, b)
      b
    }
  }

  def resetStats(): Unit = misses = 0
}
