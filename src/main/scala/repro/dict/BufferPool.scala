package repro.dict

import java.io.{File, RandomAccessFile}

/** File-backed page store with an LRU buffer pool — the memory-budget
  * substrate for the §4.4 dictionary experiment. Pages are fetched from the
  * backing file on a miss, which is charged 20 µs of modeled NVMe
  * direct-I/O time.
  */
final class BufferPool(file: File, val pageSize: Int, budgetBytes: Long)
    extends LruBlockCache(budgetBytes, pageSize, missLatencyNanos = 20_000) {
  private val raf = new RandomAccessFile(file, "r")

  protected def load(pageId: Int): Array[Byte] = {
    val buf = new Array[Byte](pageSize)
    raf.seek(pageId.toLong * pageSize)
    val fileLen = raf.length()
    val want = math.min(pageSize.toLong, fileLen - pageId.toLong * pageSize).toInt
    raf.readFully(buf, 0, math.max(0, want))
    buf
  }

  /** Read an arbitrary `[off, off+len)` byte range through the pool. */
  def readBytes(off: Long, len: Int): Array[Byte] = {
    val out = new Array[Byte](len)
    var done = 0
    while (done < len) {
      val pos    = off + done
      val page   = (pos / pageSize).toInt
      val inPage = (pos % pageSize).toInt
      val take   = math.min(len - done, pageSize - inPage)
      System.arraycopy(block(page), inPage, out, done, take)
      done += take
    }
    out
  }

  def readLongAt(off: Long): Long = {
    val b = readBytes(off, 8)
    java.nio.ByteBuffer.wrap(b).getLong
  }

  def close(): Unit = raf.close()
}
