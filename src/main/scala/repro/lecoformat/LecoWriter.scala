package repro.lecoformat

import java.io.File
import java.nio.file.{Files, Paths, StandardCopyOption}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.write._
import org.apache.spark.sql.types.LongType
import org.apache.spark.sql.util.CaseInsensitiveStringMap

/** Writes a DataFrame to a `leco` table directory, one part file per Spark
  * partition, through the DataSourceV2 write path: the encode runs inside
  * executor tasks, each column's partitions as their rows arrive, matching
  * the repro target of applying LeCo during columnar encode in the executors.
  */
object LecoWriter {

  /** Replaces the table at `dir`. Every column must be castable to BIGINT
    * (integral or timestamp): each column that is not BIGINT is written as
    * Spark's `CAST(… AS BIGINT)` of it, and a frame of BIGINT columns is
    * written as it is.
    */
  def write(df: DataFrame, dir: String, encoding: Encoding,
            partSize: Int = LecoWriteOptions.Defaults.partSize, zstd: Boolean = LecoWriteOptions.Defaults.zstd,
            rowGroupRows: Int = LecoWriteOptions.Defaults.rowGroupRows): Unit = {
    val longs =
      if (df.schema.fields.forall(_.dataType == LongType)) df
      else df.selectExpr(df.schema.fields.toSeq.map { f =>
        if (f.dataType == LongType) s"`${f.name}`" else s"CAST(`${f.name}` AS BIGINT) AS `${f.name}`"
      }: _*)
    longs.write.format("leco").mode("overwrite")
      .option("encoding", encoding.toString).option("partSize", partSize)
      .option("zstd", zstd).option("rowGroupRows", rowGroupRows)
      .save(dir)
  }
}

/** The write options of `df.write.format("leco")`: `encoding` (`Default`,
  * `For` or `LecoFix`), `partSize`, `zstd` and `rowGroupRows`.
  */
final case class LecoWriteOptions(encoding: Encoding, partSize: Int, zstd: Boolean, rowGroupRows: Int) {
  require(partSize > 0, s"partSize $partSize is not positive")
  require(rowGroupRows > 0, s"rowGroupRows $rowGroupRows is not positive")
}
object LecoWriteOptions {
  val Defaults = LecoWriteOptions(Encoding.LecoFix, partSize = 1024, zstd = false, rowGroupRows = 1 << 20)

  def apply(o: CaseInsensitiveStringMap): LecoWriteOptions = LecoWriteOptions(
    Encoding.named(o.getOrDefault("encoding", Defaults.encoding.toString)), o.getInt("partSize", Defaults.partSize),
    o.getBoolean("zstd", Defaults.zstd), o.getInt("rowGroupRows", Defaults.rowGroupRows))
}

/** One job that writes `part-<partition>.leco` per input partition; its own
  * write builder. `mode("overwrite")` truncates the table, and
  * `mode("append")` writes only into a directory that holds no part file.
  * Each task writes its file into the job's staging directory, which only
  * the driver creates and no reader lists, and the job's commit moves them
  * all to their part names. So a failed job, even one whose tasks are still
  * running after it failed, leaves no part file behind: its abort deletes
  * the staging directory whole, and the next overwrite any staging
  * directory an earlier job left.
  */
final class LecoBatchWrite(dir: String, info: LogicalWriteInfo)
    extends SupportsTruncate with Write with BatchWrite {
  private val options = LecoWriteOptions(info.options)
  private val staging = new File(dir, LecoBatchWrite.StagingPrefix + info.queryId)
  private var truncating = false
  override def truncate(): WriteBuilder = { truncating = true; this }
  override def build(): Write = this
  override def toBatch: BatchWrite = this

  /** Runs on the driver before any task: clears the table's part files and
    * staging directories, and only those, or refuses to append to a table
    * that has part files. Then creates this job's staging directory.
    */
  override def createBatchWriterFactory(physical: PhysicalWriteInfo): DataWriterFactory = {
    val out = new File(dir)
    require(out.isDirectory || out.mkdirs(), s"cannot create $dir")
    val existing = LecoTable.partFiles(dir)
    if (truncating) {
      existing.foreach(f => require(f.delete(), s"cannot delete $f"))
      out.listFiles().filter(_.getName.startsWith(LecoBatchWrite.StagingPrefix)).foreach(LecoBatchWrite.delete)
    } else if (existing.nonEmpty)
      throw new UnsupportedOperationException(
        s"cannot append to the leco table $dir: it has ${existing.length} part files, and a leco table " +
          "is written whole; write it with mode(\"overwrite\")")
    require(staging.mkdir(), s"cannot create $staging")
    LecoDataWriterFactory(staging.getPath, info.schema.fieldNames, options)
  }

  override def commit(messages: Array[WriterCommitMessage]): Unit = {
    messages.foreach { case LecoCommitMessage(written, part) =>
      Files.move(Paths.get(written), Paths.get(dir, part), StandardCopyOption.ATOMIC_MOVE)
    }
    LecoBatchWrite.delete(staging)
  }

  override def abort(messages: Array[WriterCommitMessage]): Unit = {
    messages.foreach {
      case LecoCommitMessage(_, part) => new File(dir, part).delete() // moved by a commit that failed later
      case _                          => // a task that did not commit
    }
    LecoBatchWrite.delete(staging)
  }
}

object LecoBatchWrite {
  /** The name of a job's staging directory in the table directory, before the job's query id. */
  val StagingPrefix = ".leco-staging-"

  /** Deletes a staging directory and the task files in it. */
  private def delete(staging: File): Unit = {
    Option(staging.listFiles()).foreach(_.foreach(_.delete()))
    staging.delete()
  }
}

/** A task's file, `written`, and the name of the part file it becomes. */
final case class LecoCommitMessage(written: String, part: String) extends WriterCommitMessage

/** Makes each task's writer, whose file is a hidden one in `staging`. */
final case class LecoDataWriterFactory(staging: String, columns: Array[String], options: LecoWriteOptions)
    extends DataWriterFactory {
  override def createWriter(partitionId: Int, taskId: Long): DataWriter[InternalRow] = {
    val part = f"part-$partitionId%05d.leco"
    new LecoDataWriter(new File(staging, s".$part.$taskId.tmp"), part, columns, options)
  }
}

/** Copies each row's longs straight into the file writer's column blocks,
  * in `file`, which the job commit moves to the part file named `part`. A
  * null fails the write: `getLong` would read it as 0.
  */
final class LecoDataWriter(file: File, part: String, columns: Array[String], o: LecoWriteOptions)
    extends DataWriter[InternalRow] {
  private val out = new LecoFileWriter(file, columns.toSeq, o)

  override def write(r: InternalRow): Unit = { put(r, out.blocks, out.filled); out.advance(1) }

  /** Fills the blocks' room from `rows`, hands the rows to the file writer, and again. */
  override def writeAll(rows: java.util.Iterator[InternalRow]): Unit =
    while (rows.hasNext) {
      val blocks = out.blocks
      val from = out.filled
      val end = from + out.room
      var i = from
      while (i < end && rows.hasNext) { put(rows.next(), blocks, i); i += 1 }
      out.advance(i - from)
    }

  private def put(r: InternalRow, blocks: Array[Array[Long]], at: Int): Unit = {
    var c = 0
    while (c < blocks.length) {
      if (r.isNullAt(c)) throw new IllegalArgumentException(s"null in column ${columns(c)}: a leco column holds no nulls")
      blocks(c)(at) = r.getLong(c)
      c += 1
    }
  }

  override def commit(): WriterCommitMessage = { out.close(); LecoCommitMessage(file.getPath, part) }
  override def abort(): Unit = out.abort()
  override def close(): Unit = ()
}
