package repro.lsm

import java.io.{File, FileOutputStream, BufferedOutputStream, DataOutputStream, RandomAccessFile}
import java.nio.ByteBuffer
import scala.collection.mutable.ArrayBuffer

/** A single sorted-run SSTable: fixed-format records packed into 4KB data
  * blocks, plus an index block mapping each block's separator key to a
  * block handle (offset, length) — the RocksDB substrate of §5.2.
  *
  * Records are `[keyLen:short][key][valLen:short][value]`. The index entry
  * for block i is the *last key* of block i (RocksDB shortens separators;
  * last-key indexing preserves the same search semantics).
  */
final class SSTable(val file: File, val blockHandles: Array[(Long, Int)],
                    val separators: Array[String]) {
  private val raf = new RandomAccessFile(file, "r")

  def numBlocks: Int = blockHandles.length

  def readBlock(i: Int): Array[Byte] = {
    val (off, len) = blockHandles(i)
    val buf = new Array[Byte](len)
    raf.seek(off)
    raf.readFully(buf)
    buf
  }

  /** Linear search within a decoded block. Returns the first value with
    * key >= `key`, or null if past the block end.
    */
  def searchBlock(block: Array[Byte], key: String): Array[Byte] = {
    val bb = ByteBuffer.wrap(block)
    while (bb.remaining() > 4) {
      val kl = bb.getShort.toInt
      val kb = new Array[Byte](kl); bb.get(kb)
      val vl = bb.getShort.toInt
      val vb = new Array[Byte](vl); bb.get(vb)
      if (new String(kb) >= key) return vb
    }
    null
  }

  def close(): Unit = raf.close()
}

object SSTable {
  /** The data-block size in bytes, which the block cache is counted in. */
  val BlockSize = 4096

  /** Build from sorted (key, value) pairs; returns the table plus the raw
    * (uncompressed) index-entry material handed to index-block codecs.
    */
  def build(file: File, records: Iterator[(String, Array[Byte])]): SSTable = {
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(file), 1 << 16))
    val handles = new ArrayBuffer[(Long, Int)]()
    val seps = new ArrayBuffer[String]()
    var blockStart = 0L
    var blockBytes = 0
    var lastKey: String = null
    for ((k, v) <- records) {
      val recLen = 2 + k.length + 2 + v.length
      if (blockBytes > 0 && blockBytes + recLen > BlockSize) {
        handles += ((blockStart, blockBytes))
        seps += lastKey
        blockStart += blockBytes
        blockBytes = 0
      }
      out.writeShort(k.length); out.writeBytes(k)
      out.writeShort(v.length); out.write(v)
      blockBytes += recLen
      lastKey = k
    }
    if (blockBytes > 0) { handles += ((blockStart, blockBytes)); seps += lastKey }
    out.close()
    new SSTable(file, handles.toArray, seps.toArray)
  }
}
