package repro.lsm

import repro.core.{LecoFixCodec, LecoFixCompressed}
import repro.core.str.{LecoStringCodec, LecoStringCompressed}

/** An index block maps a lookup key to the data block that may contain it:
  * `findBlock` returns the index of the first separator >= key (RocksDB's
  * binary-search semantics), `handle` its block offset/length.
  */
trait IndexBlock {
  def numBlocks: Int
  def sizeBytes: Long
  def findBlock(key: String): Int
  def handle(i: Int): (Long, Int)
}

/** RocksDB's native index representation: restart-interval (RI) prefix-delta
  * compression (§5.2). Every `ri`-th entry is a restart point storing the
  * full key and absolute offset; entries in between store
  * `[sharedPrefixLen:1B][suffix]` and delta offsets. Lookup binary-searches
  * the restart points and then decodes the restart unit linearly —
  * RI=1 is uncompressed (fast, large), RI=128 compresses well but must
  * decode up to 128 entries per lookup.
  */
final class RestartIntervalIndex(separators: Array[String], handles: Array[(Long, Int)],
                                 val ri: Int) extends IndexBlock {
  def numBlocks: Int = separators.length

  val sizeBytes: Long = {
    var total = 0L
    var i = 0
    while (i < separators.length) {
      if (i % ri == 0) total += 1 + separators(i).length + 8 + 4 // full key + offset + len
      else {
        val shared = sharedLen(separators(i - 1), separators(i))
        total += 2 + (separators(i).length - shared) + 3 // prefixLen, suffix, varint-ish delta
      }
      i += 1
    }
    total + 4L * ((separators.length + ri - 1) / ri) // restart point array
  }

  private def sharedLen(a: String, b: String): Int = {
    var k = 0
    val m = math.min(a.length, b.length)
    while (k < m && a.charAt(k) == b.charAt(k)) k += 1
    k
  }

  /** Decode cost model: touching an entry inside a restart unit requires
    * materializing every entry from the restart point up to it. We store
    * the entries uncompressed in memory and *perform* the prefix
    * re-materialization work (string building) so CPU cost scales with RI,
    * as in RocksDB.
    */
  def findBlock(key: String): Int = {
    val nRestarts = (separators.length + ri - 1) / ri
    var lo = 0; var hi = nRestarts - 1
    while (lo < hi) { // last restart with restartKey <= key, else 0
      val mid = (lo + hi + 1) >>> 1
      if (separators(mid * ri) <= key) lo = mid else hi = mid - 1
    }
    // linear decode within the unit, re-materializing each key
    var i = lo * ri
    var prev = separators(i)
    if (prev >= key) return i
    val end = math.min(i + ri, separators.length)
    i += 1
    while (i < end) {
      val cur = separators(i)
      val shared = sharedLen(prev, cur)
      val materialized = prev.substring(0, shared) + cur.substring(shared)
      if (materialized >= key) return i
      prev = materialized
      i += 1
    }
    // continue into following units (key larger than this unit's last entry)
    while (i < separators.length && separators(i) < key) i += 1
    i
  }

  def handle(i: Int): (Long, Int) = handles(i)
}

/** LeCo-compressed index block (§5.2): separator keys through the string
  * extension, block offsets through integer LeCo-fix (both partition size
  * 64, the paper's setting). Random access needs only two memory probes per
  * entry, so binary search stays fast while the index shrinks.
  */
final class LecoIndex(separators: Array[String], handles: Array[(Long, Int)]) extends IndexBlock {
  private val partSize = 64
  private val keys: LecoStringCompressed =
    new LecoStringCodec(partSize, powerOfTwoBase = true).compress(separators)
  private val offsets: LecoFixCompressed =
    new LecoFixCodec(partSize).compress(handles.map(_._1))
  private val lens: LecoFixCompressed =
    new LecoFixCodec(partSize).compress(handles.map(_._2.toLong))

  def numBlocks: Int = separators.length
  def sizeBytes: Long = keys.sizeBytes + offsets.sizeBytes + lens.sizeBytes

  def findBlock(key: String): Int = {
    var lo = 0; var hi = separators.length // first separator >= key
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (keys.get(mid) < key) lo = mid + 1 else hi = mid
    }
    lo
  }

  def handle(i: Int): (Long, Int) = (offsets.get(i), lens.get(i).toInt)
}
