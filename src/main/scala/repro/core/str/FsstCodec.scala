package repro.core.str

/** Simplified FSST (Boncz et al., VLDB 2020) — the dictionary-based string
  * baseline of §4.6. A static table of up to 254 frequent substrings
  * (length 2–8, trained greedily on a sample by gain = (len−1)·count) maps
  * each match to a 1-byte code; code 255 escapes a literal byte. The string
  * offset array is delta-compressed in blocks of `offsetBlock` strings
  * (base offset + 1-byte compressed lengths), trading random-access speed
  * for size — the knob swept in Fig 13 (0 = full 4-byte offsets, O(1)
  * access). A character above U+00FF is not a byte, and `compress` rejects it.
  *
  * Deviation (DESIGN.md): greedy one-shot symbol selection instead of
  * FSST's iterative refinement; interface and cost model are preserved.
  */
final class FsstCodec(val offsetBlock: Int = 0) extends StringCodec {
  val name = s"FSST(b=$offsetBlock)"

  def compress(values: Array[String]): FsstCompressed = {
    val table = FsstCodec.train(values)
    val lookup = new java.util.HashMap[String, Integer]()
    table.zipWithIndex.foreach { case (s, i) => lookup.put(s, i) }
    val maxSymLen = if (table.isEmpty) 0 else table.iterator.map(_.length).max

    val payload = new scala.collection.mutable.ArrayBuffer[Byte](values.iterator.map(_.length).sum / 2 + 16)
    val lengths = new Array[Int](values.length)
    var i = 0
    while (i < values.length) {
      val s = values(i)
      val wide = s.indexWhere(_ > 0xff)
      require(wide < 0,
              f"""FSST codes one byte per character: '${s(wide)}' (U+${s(wide).toInt}%04X) in "$s" is above U+00FF""")
      val before = payload.length
      var p = 0
      while (p < s.length) {
        var l    = math.min(maxSymLen, s.length - p)
        var code = -1
        while (code < 0 && l >= 2) {
          val sym = lookup.get(s.substring(p, p + l))
          if (sym != null) code = sym.intValue() else l -= 1
        }
        if (code < 0) { payload += 255.toByte; payload += s.charAt(p).toByte; p += 1 }
        else { payload += code.toByte; p += l }
      }
      lengths(i) = payload.length - before
      require(lengths(i) < 256, s"compressed string too long for 1-byte block lengths: ${lengths(i)}")
      i += 1
    }
    new FsstCompressed(values.length, table, payload.toArray, lengths, offsetBlock)
  }
}

object FsstCodec {
  val MaxSymbols = 254 // codes 0–253; 255 escapes a literal byte

  /** Train the symbol table on a sample: count substrings of length 2–8,
    * rank by (len−1)·count, take the top [[MaxSymbols]].
    */
  def train(values: Array[String]): Array[String] = {
    val counts = new java.util.HashMap[String, Long]()
    val step = math.max(1, values.length / 4096) // sample ~4K strings
    var i = 0
    while (i < values.length) {
      val s = values(i)
      var p = 0
      while (p < s.length) {
        var l = 2
        while (l <= 8 && p + l <= s.length) {
          counts.merge(s.substring(p, p + l), 1L, (a, b) => a + b)
          l += 1
        }
        p += 1
      }
      i += step
    }
    import scala.jdk.CollectionConverters._
    counts.asScala.toSeq
      .map { case (s, c) => (s, (s.length - 1).toLong * c) }
      .filter(_._2 > 1)
      .sortBy { case (s, gain) => (-gain, s) }
      .take(MaxSymbols)
      .map(_._1)
      .toArray
  }
}

final class FsstCompressed(val n: Int, val table: Array[String],
                           val payload: Array[Byte], val lengths: Array[Int],
                           val offsetBlock: Int) extends CompressedStrings {
  // Full offsets (block 0) or per-block base offsets.
  private val offsets: Array[Int] = {
    val o = new Array[Int](n + 1)
    var i = 0
    while (i < n) { o(i + 1) = o(i) + lengths(i); i += 1 }
    o
  }

  def length: Int = n

  def sizeBytes: Long = {
    val tableBytes  = table.iterator.map(_.length.toLong + 1).sum
    val offsetBytes =
      if (offsetBlock <= 0) 4L * (n + 1)
      else 4L * ((n + offsetBlock - 1) / offsetBlock) + n // block bases + 1B lengths
    tableBytes + payload.length.toLong + offsetBytes
  }

  /** Random access: O(1) with full offsets, O(block) scan otherwise. */
  def get(i: Int): String = {
    val start =
      if (offsetBlock <= 0) offsets(i)
      else {
        val blockStart = (i / offsetBlock) * offsetBlock
        var off = offsets(blockStart) // stands in for the stored block base
        var j = blockStart
        while (j < i) { off += lengths(j); j += 1 }
        off
      }
    decodeAt(start, start + lengths(i))
  }

  private def decodeAt(from: Int, until: Int): String = {
    val sb = new StringBuilder
    var p = from
    while (p < until) {
      val b = payload(p) & 0xff
      if (b == 255) { sb += (payload(p + 1) & 0xff).toChar; p += 2 }
      else { sb ++= table(b); p += 1 }
    }
    sb.toString
  }

  def decompressAll(): Array[String] =
    Array.tabulate(n)(i => decodeAt(offsets(i), offsets(i + 1)))
}
