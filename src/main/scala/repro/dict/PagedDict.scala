package repro.dict

import java.io.{File, FileOutputStream}
import repro.core.{LecoFixCodec, LecoFixCompressed, LecoPartition, PartitionedInts}
import repro.core.baseline.ForCodec

/** An order-preserving dictionary (code = rank in the sorted unique domain)
  * whose code→value array lives in a file accessed through a [[BufferPool]]
  * (§4.4). Three physical layouts: Raw (8B/entry), FOR and LeCo-fix — the
  * latter two in their own byte layout, with the partition offsets in memory
  * so a random access touches only the header and delta pages it needs.
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

  def raw(domain: Array[Long], budgetBytes: Long, pageSize: Int = 4096): PagedDict = {
    val f = tempFile("rawdict")
    val out = new java.io.DataOutputStream(new java.io.BufferedOutputStream(new FileOutputStream(f)))
    domain.foreach(out.writeLong)
    out.close()
    new RawDict(new BufferPool(f, pageSize, budgetBytes), domain.length)
  }

  def forEncoded(domain: Array[Long], partSize: Int, budgetBytes: Long, pageSize: Int = 4096): PagedDict =
    partitioned("fordict", new ForCodec(partSize).compress(domain), budgetBytes, pageSize)

  def lecoEncoded(domain: Array[Long], partSize: Int, budgetBytes: Long, pageSize: Int = 4096): PagedDict =
    partitioned("lecodict", new LecoFixCodec(partSize).compress(domain), budgetBytes, pageSize)

  private def partitioned(prefix: String, c: LecoFixCompressed, budgetBytes: Long, pageSize: Int): PagedDict = {
    val f = tempFile(prefix)
    val out = new FileOutputStream(f)
    try out.write(c.toBytes) finally out.close()
    val offsets = c.parts.scanLeft(PartitionedInts.PrefixBytes.toLong)(_ + _.sizeBytes)
    new PartitionedDict(new BufferPool(f, pageSize, budgetBytes), c.partSize, offsets, f.length())
  }
}

final class RawDict(val pool: BufferPool, n: Int) extends PagedDict {
  def sizeBytes: Long = n.toLong * 8
  def lookup(code: Int): Long = pool.readLongAt(code.toLong * 8)
}

/** A FOR or LeCo-fix dictionary: partition `p` starts at `offsets(p)`. */
final class PartitionedDict(val pool: BufferPool, partSize: Int, offsets: Array[Long],
                            val sizeBytes: Long) extends PagedDict {
  private val read: (Long, Int) => Array[Byte] = pool.readBytes // one function object, not one per lookup
  def lookup(code: Int): Long = LecoPartition.getAt(read, offsets(code / partSize), code % partSize)
}
