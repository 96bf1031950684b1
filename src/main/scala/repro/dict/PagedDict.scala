package repro.dict

import java.io.{File, FileOutputStream}
import repro.core.LecoPartition
import repro.core.baseline.ForPartition

/** An order-preserving dictionary (code = rank in the sorted unique domain)
  * whose code→value array lives in a file accessed through a [[BufferPool]]
  * (§4.4). Three physical layouts: Raw (8B/entry), FOR and LeCo-fix — the
  * latter two serialized with in-memory per-partition offsets so a random
  * access touches only the header and delta pages it needs.
  */
sealed trait PagedDict {
  def pool: BufferPool
  def sizeBytes: Long
  def lookup(code: Int): Long
  def close(): Unit = pool.close()
}

object PagedDict {
  private def tempFile(prefix: String): File = {
    val f = File.createTempFile(prefix, ".dict")
    f.deleteOnExit()
    f
  }

  /** Shared bit extraction through the pool (mirrors BitPack.read). */
  private[dict] def readPacked(pool: BufferPool, wordsOff: Long, j: Int, w: Int): Long = {
    if (w == 0) return 0L
    val bitPos = j.toLong * w
    val w0  = bitPos >>> 6
    val off = (bitPos & 63).toInt
    val lo  = pool.readLongAt(wordsOff + w0 * 8) >>> off
    val got = 64 - off
    val v = if (got >= w) lo else lo | (pool.readLongAt(wordsOff + (w0 + 1) * 8) << got)
    if (w == 64) v else v & ((1L << w) - 1)
  }

  def raw(domain: Array[Long], budgetBytes: Long, pageSize: Int = 4096): PagedDict = {
    val f = tempFile("rawdict")
    val out = new java.io.DataOutputStream(new java.io.BufferedOutputStream(new FileOutputStream(f)))
    domain.foreach(out.writeLong)
    out.close()
    new RawDict(new BufferPool(f, pageSize, budgetBytes), domain.length)
  }

  def forEncoded(domain: Array[Long], partSize: Int, budgetBytes: Long, pageSize: Int = 4096): PagedDict = {
    val f = tempFile("fordict")
    val out = new java.io.DataOutputStream(new java.io.BufferedOutputStream(new FileOutputStream(f)))
    val n = domain.length
    val headerOffs = new scala.collection.mutable.ArrayBuffer[Long]()
    val widths = new scala.collection.mutable.ArrayBuffer[Int]()
    var off = 0L
    var s = 0
    while (s < n) {
      val e = math.min(s + partSize, n)
      val p = ForPartition.encode(domain, s, e)
      headerOffs += off
      widths += p.width
      out.writeLong(p.min); out.writeByte(p.width); off += 9
      p.words.foreach(out.writeLong); off += p.words.length * 8L
      s = e
    }
    out.close()
    new ForDict(new BufferPool(f, pageSize, budgetBytes), n, partSize,
                headerOffs.toArray, widths.toArray, f.length())
  }

  def lecoEncoded(domain: Array[Long], partSize: Int, budgetBytes: Long, pageSize: Int = 4096): PagedDict = {
    val f = tempFile("lecodict")
    val out = new java.io.DataOutputStream(new java.io.BufferedOutputStream(new FileOutputStream(f)))
    val n = domain.length
    val headerOffs = new scala.collection.mutable.ArrayBuffer[Long]()
    val widths = new scala.collection.mutable.ArrayBuffer[Int]()
    var off = 0L
    var s = 0
    while (s < n) {
      val e = math.min(s + partSize, n)
      val p = LecoPartition.encode(domain, s, e)
      headerOffs += off
      widths += p.width
      out.writeDouble(p.theta0); out.writeDouble(p.theta1); out.writeByte(p.width); off += 17
      p.words.foreach(out.writeLong); off += p.words.length * 8L
      s = e
    }
    out.close()
    new LecoDict(new BufferPool(f, pageSize, budgetBytes), n, partSize,
                 headerOffs.toArray, widths.toArray, f.length())
  }
}

final class RawDict(val pool: BufferPool, n: Int) extends PagedDict {
  def sizeBytes: Long = n.toLong * 8
  def lookup(code: Int): Long = pool.readLongAt(code.toLong * 8)
}

final class ForDict(val pool: BufferPool, n: Int, partSize: Int,
                    headerOffs: Array[Long], widths: Array[Int],
                    val sizeBytes: Long) extends PagedDict {
  def lookup(code: Int): Long = {
    val p  = code / partSize
    val hdr = pool.readBytes(headerOffs(p), 8)
    val mn  = java.nio.ByteBuffer.wrap(hdr).getLong
    mn + PagedDict.readPacked(pool, headerOffs(p) + 9, code % partSize, widths(p))
  }
}

final class LecoDict(val pool: BufferPool, n: Int, partSize: Int,
                     headerOffs: Array[Long], widths: Array[Int],
                     val sizeBytes: Long) extends PagedDict {
  def lookup(code: Int): Long = {
    val p   = code / partSize
    val hdr = java.nio.ByteBuffer.wrap(pool.readBytes(headerOffs(p), 16))
    val t0  = hdr.getDouble; val t1 = hdr.getDouble
    val j   = code % partSize
    math.floor(t0 + t1 * j).toLong + PagedDict.readPacked(pool, headerOffs(p) + 17, j, widths(p))
  }
}
