package repro.lecoformat

import java.io.{DataInputStream, DataOutputStream, BufferedInputStream, BufferedOutputStream, FileInputStream, FileOutputStream, File}
import java.nio.{BufferUnderflowException, ByteBuffer}
import com.github.luben.zstd.{Zstd, ZstdException}
import repro.core._
import repro.core.baseline.{DictCodec, ForCodec}

/** Column-chunk encodings supported by the columnar format (§5.1):
  * `Default` = dictionary with plain fallback (Parquet's default), `For`,
  * `LecoFix`. Partition size is fixed at write time (the paper uses 10K).
  * Each names a codec and the reader of that codec's byte layout.
  */
sealed abstract class Encoding(val tag: Int, val compress: (Array[Long], Int) => ByteLayout,
                               val read: ByteBuffer => ByteLayout)
object Encoding {
  case object Default extends Encoding(0, (v, _) => DictCodec.compress(v), DictCodec.read)
  case object For     extends Encoding(1, (v, size) => new ForCodec(size).compress(v), LecoFixCompressed.read)
  case object LecoFix extends Encoding(2, (v, size) => new LecoFixCodec(size).compress(v), LecoFixCompressed.read)
  def of(tag: Int): Encoding = Seq(Default, For, LecoFix).find(_.tag == tag)
    .getOrElse(throw new IllegalArgumentException(s"unknown encoding tag $tag"))
}

/** `a <= v <= b`. */
final case class RangePredicate(a: Long, b: Long) extends ScanPredicate {
  def test(v: Long): Boolean = v >= a && v <= b
  def mayMatch(lo: Long, hi: Long): Boolean = hi >= a && lo <= b
  /** `a` below the range, `x` inside it, and `Long.MaxValue` past it (or when it is empty). */
  override def nextMatch(x: Long): Long = if (x > b || a > b) Long.MaxValue else math.max(x, a)
}

/** `t1 <= v % mod < t2` — the paper's per-day time-window filter (§5.1.1).
  * `%` is the JVM's (and Spark's): the remainder takes the sign of `v`.
  * `nextMatch(a)` gives the smallest `x >= a` satisfying the predicate, or
  * `Long.MaxValue` when none is below it, which is what enables LeCo's
  * in-partition computation pruning.
  */
final case class TimeOfDayPredicate(mod: Long, t1: Long, t2: Long) extends ScanPredicate {
  require(mod > 0, s"modulus $mod is not positive")
  // the window's remainders as `v >= 0` and as `v <= 0` take them: [lo, hi)
  private val posLo = math.max(t1, 0L);        private val posHi = math.min(t2, mod)
  private val negLo = math.max(t1, 1L - mod);  private val negHi = math.min(t2, 1L)

  def test(v: Long): Boolean = { val r = v % mod; r >= t1 && r < t2 }

  // Every step stays within (-mod, mod] of a remainder, so nothing overflows
  // but the final `a + d`, which saturates.
  override def nextMatch(a: Long): Long = {
    val r = a % mod
    if (a >= 0) {
      if (posLo >= posHi) Long.MaxValue
      else {
        val d = if (r < posLo) posLo - r else if (r < posHi) 0L else mod - (r - posLo)
        if (d > Long.MaxValue - a) Long.MaxValue else a + d
      }
    } else if (negLo < negHi && r < negHi) {
      if (r < negLo) a + (negLo - r) else a
    } else {
      // nothing matches in [a, a - r], the multiple of `mod` at or above `a`
      val block = a - r
      if (block < 0 && negLo < negHi) block + mod + negLo else nextMatch(0L)
    }
  }

  def mayMatch(lo: Long, hi: Long): Boolean = nextMatch(lo) <= hi
}

/** A column chunk is `[tag:u8][zstd:u8][rawLen:i32]` + the encoding's codec
  * bytes, `rawLen` of them; when `zstd = 1` those bytes are zstd-compressed
  * (the §5.1.3 block-compression experiment).
  */
object ChunkCodec {
  val HeaderBytes = 6

  def encode(values: Array[Long], enc: Encoding, partSize: Int, zstd: Boolean): Array[Byte] = {
    val body    = enc.compress(values, partSize).toBytes
    val payload = if (zstd) Zstd.compress(body, 3) else body
    ByteBuffer.allocate(HeaderBytes + payload.length)
      .put(enc.tag.toByte).put((if (zstd) 1 else 0).toByte).putInt(body.length).put(payload)
      .array()
  }

  /** Decodes a chunk, or says what is wrong with it and which `name` it has. */
  def decode(bytes: Array[Byte], name: String = "chunk"): ColumnChunk =
    try {
      val head   = ByteBuffer.wrap(bytes)
      val enc    = Encoding.of(head.get())
      val zstd   = head.get()
      val rawLen = head.getInt
      val stored = bytes.length - HeaderBytes
      val body = zstd match {
        case 0 =>
          require(rawLen <= stored, s"body truncated: header says $rawLen body bytes, $stored follow")
          require(rawLen == stored, s"${stored - rawLen} stray bytes follow the $rawLen-byte body")
          head.slice()
        case 1 =>
          require(rawLen >= 0 && rawLen <= Zstd.getFrameContentSize(bytes, HeaderBytes, stored),
                  s"zstd body does not hold the $rawLen bytes its header says")
          val raw = new Array[Byte](rawLen)
          val got = Zstd.decompressByteArray(raw, 0, rawLen, bytes, HeaderBytes, stored)
          require(got == rawLen, s"zstd body holds $got of its $rawLen bytes")
          ByteBuffer.wrap(raw)
        case f => throw new IllegalArgumentException(s"zstd flag $f is neither 0 nor 1")
      }
      val chunk = enc.read(body)
      require(!body.hasRemaining, s"${body.remaining} bytes left over after the $enc body")
      chunk
    } catch {
      case e @ (_: IllegalArgumentException | _: BufferUnderflowException | _: ZstdException) =>
        val what = e match {
          case _: BufferUnderflowException => "truncated"
          case _: ZstdException            => s"zstd body does not decompress: ${e.getMessage}"
          case _                           => e.getMessage
        }
        throw new IllegalStateException(s"corrupt leco $name (${bytes.length} bytes): $what", e)
    }
}

/** Part-file writer: `LECO1 | nCols | colNames | rowGroups* | footer`.
  * One instance per task/file; feed rows column-wise per row group.
  */
final class LecoFileWriter(file: File, columns: Seq[String], encoding: Encoding,
                           partSize: Int, zstd: Boolean, rowGroupRows: Int) {
  private val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(file), 1 << 16))
  private val buffers = Array.fill(columns.size)(new scala.collection.mutable.ArrayBuffer[Long](rowGroupRows))
  private var rowGroupCount = 0
  out.writeBytes("LECO1")
  out.writeInt(columns.size)
  columns.foreach(out.writeUTF)

  def addRow(values: Array[Long]): Unit = {
    var c = 0
    while (c < values.length) { buffers(c) += values(c); c += 1 }
    if (buffers(0).length >= rowGroupRows) flushGroup()
  }

  private def flushGroup(): Unit = {
    if (buffers(0).isEmpty) return
    out.writeInt(buffers(0).length)
    var c = 0
    while (c < buffers.length) {
      val vals = buffers(c).toArray
      var mn = Long.MaxValue; var mx = Long.MinValue
      vals.foreach { v => if (v < mn) mn = v; if (v > mx) mx = v }
      val bytes = ChunkCodec.encode(vals, encoding, partSize, zstd)
      out.writeLong(mn); out.writeLong(mx); out.writeInt(bytes.length)
      out.write(bytes)
      buffers(c).clear()
      c += 1
    }
    rowGroupCount += 1
  }

  def close(): Unit = { flushGroup(); out.writeInt(-1); out.flush(); out.close() }
}

/** Reader over one part file (loads chunk bytes lazily per row group).
  * `bytesRead` counts the chunk bytes actually fetched — the benches charge
  * modeled cold-read I/O on it (the OS page cache hides real I/O at our
  * scale; see DESIGN.md hardware substitutions).
  */
final class LecoFileReader(file: File) {
  var bytesRead: Long = 0L

  val (columns, groups): (Array[String], Array[(Int, Array[Long], Array[Long], Array[Long], Array[Int])]) = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(file), 1 << 16))
    val magic = new Array[Byte](5); in.readFully(magic)
    require(new String(magic) == "LECO1", s"bad magic in $file")
    val nCols = in.readInt
    val cols = Array.fill(nCols)(in.readUTF)
    var offset = 5L + 4 + cols.map(c => 2 + c.getBytes("UTF-8").length).sum
    val gs = scala.collection.mutable.ArrayBuffer[(Int, Array[Long], Array[Long], Array[Long], Array[Int])]()
    var nRows = in.readInt; offset += 4
    while (nRows != -1) {
      val mins = new Array[Long](nCols); val maxs = new Array[Long](nCols)
      val offs = new Array[Long](nCols); val lens = new Array[Int](nCols)
      var c = 0
      while (c < nCols) {
        mins(c) = in.readLong; maxs(c) = in.readLong
        val len = in.readInt
        offset += 20
        offs(c) = offset; lens(c) = len
        in.skipNBytes(len); offset += len
        c += 1
      }
      gs += ((nRows, mins, maxs, offs, lens))
      nRows = in.readInt; offset += 4
    }
    in.close()
    (cols, gs.toArray)
  }

  def colIndex(name: String): Int = {
    val i = columns.indexOf(name)
    require(i >= 0, s"no column $name in ${columns.mkString(",")}")
    i
  }

  def numGroups: Int = groups.length
  def groupRows(g: Int): Int = groups(g)._1
  def zone(g: Int, col: Int): (Long, Long) = (groups(g)._2(col), groups(g)._3(col))

  /** Row-group selection (§5.1.1): the ascending positions in group `g`
    * whose values match every `(column, predicate)`, or `None` (every row)
    * when there is no predicate. A group whose zone map rules out a predicate
    * is skipped unread. Otherwise the first filtered chunk is scanned, with
    * its encoding's pruning, and each further one is tested only at the
    * positions still selected.
    */
  def select(g: Int, preds: Seq[(Int, ScanPredicate)]): Option[Array[Int]] =
    if (preds.exists { case (c, p) => val (lo, hi) = zone(g, c); !p.mayMatch(lo, hi) }) Some(Array.emptyIntArray)
    else preds.foldLeft(Option.empty[Array[Int]]) {
      case (None, (c, p)) => Some(readChunk(g, c).scan(p))
      case (Some(sel), (c, p)) if sel.nonEmpty =>
        val vals = readChunk(g, c).materialize(sel)
        var kept = 0
        var i = 0
        while (i < sel.length) {
          if (p.test(vals(i))) { sel(kept) = sel(i); kept += 1 }
          i += 1
        }
        Some(if (kept == sel.length) sel else java.util.Arrays.copyOf(sel, kept))
      case (none, _) => none
    }

  def readChunk(g: Int, col: Int): ColumnChunk = {
    val (_, _, _, offs, lens) = groups(g)
    bytesRead += lens(col)
    val raf = new java.io.RandomAccessFile(file, "r")
    try {
      raf.seek(offs(col))
      val bytes = new Array[Byte](lens(col))
      raf.readFully(bytes)
      ChunkCodec.decode(bytes, s"chunk of column ${columns(col)} in row group $g of $file")
    } finally raf.close()
  }
}

/** Directory-level table: the unit Spark and the benches operate on. */
object LecoTable {
  def partFiles(dir: String): Array[File] = {
    val fs = new File(dir).listFiles()
    require(fs != null, s"no such table dir: $dir")
    fs.filter(_.getName.endsWith(".leco")).sortBy(_.getName)
  }

  def totalSizeBytes(dir: String): Long = partFiles(dir).map(_.length).sum

  /** Filter-scan with late materialization (§5.1.1): select the rows of
    * each row group where `pred` holds on `filterCol`, then materialize
    * `projectCol` at them. Returns the projected values.
    */
  def filterScan(dir: String, filterCol: String, pred: ScanPredicate,
                 projectCol: String): Array[Long] =
    filterScanCounted(dir, filterCol, pred, projectCol)._1

  /** filterScan plus the chunk bytes actually read (for modeled-I/O
    * accounting in the benches).
    */
  def filterScanCounted(dir: String, filterCol: String, pred: ScanPredicate,
                 projectCol: String): (Array[Long], Long) = {
    val out = new scala.collection.mutable.ArrayBuilder.ofLong
    var ioBytes = 0L
    for (f <- partFiles(dir)) {
      val r = new LecoFileReader(f)
      val preds = Seq(r.colIndex(filterCol) -> pred); val pc = r.colIndex(projectCol)
      for (g <- 0 until r.numGroups; sel <- r.select(g, preds) if sel.nonEmpty)
        out.addAll(r.readChunk(g, pc).materialize(sel))
      ioBytes += r.bytesRead
    }
    (out.result(), ioBytes)
  }

  /** Bitmap selection (§5.1.2): decode the values at the set positions of a
    * global bitmap (positions are table-wide row indices).
    */
  def bitmapSelect(dir: String, col: String, positions: Array[Long]): Array[Long] = {
    val out = new Array[Long](positions.length)
    var fileBase = 0L
    var pi = 0
    for (f <- partFiles(dir)) {
      val r = new LecoFileReader(f)
      val c = r.colIndex(col)
      var g = 0
      while (g < r.numGroups) {
        val n = r.groupRows(g)
        val groupEnd = fileBase + n
        if (pi < positions.length && positions(pi) < groupEnd) {
          val firstPi = pi
          while (pi < positions.length && positions(pi) < groupEnd) pi += 1
          val local = new Array[Int](pi - firstPi)
          var k = 0
          while (k < local.length) { local(k) = (positions(firstPi + k) - fileBase).toInt; k += 1 }
          val vals = r.readChunk(g, c).materialize(local)
          System.arraycopy(vals, 0, out, firstPi, vals.length)
        }
        fileBase = groupEnd
        g += 1
      }
    }
    out
  }
}
