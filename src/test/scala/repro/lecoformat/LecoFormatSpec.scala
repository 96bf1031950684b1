package repro.lecoformat

import java.io.File
import java.nio.file.Files
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import repro.SparkSpec

/** Writer/reader integration over real Spark jobs: the encode happens in
  * executor tasks through the DataSourceV2 write path, the read path through
  * LecoFileReader / LecoTable and `spark.read.format("leco")`.
  */
class LecoFormatSpec extends SparkSpec {

  private lazy val base: String = java.nio.file.Files.createTempDirectory("lecofmt").toString

  private def writeSample(enc: Encoding, name: String, zstd: Boolean = false): (String, Array[Long], Array[Long]) = {
    import spark.implicits._
    val n = 40_000
    val r = new scala.util.Random(5)
    var t = 1000L
    val ts = Array.fill(n) { t += r.nextInt(5); t }
    val id = Array.fill(n)(r.nextLong() % 1_000_000_000L)
    val df = spark.sparkContext.parallelize(ts.zip(id).toSeq, 4).toDF("ts", "id")
    val dir = s"$base/$name"
    LecoWriter.write(df, dir, enc, partSize = 512, zstd = zstd, rowGroupRows = 8192)
    (dir, ts, id)
  }

  for ((encName, enc) <- Seq("Default" -> Encoding.Default, "FOR" -> Encoding.For,
                             "LeCo" -> Encoding.LecoFix)) {
    test(s"$encName: written table decodes back to the source rows") {
      val (dir, ts, id) = writeSample(enc, s"rt_$encName")
      var gotTs = List.empty[Array[Long]]
      var gotId = List.empty[Array[Long]]
      for (f <- LecoTable.partFiles(dir)) {
        val rd = new LecoFileReader(f)
        assert(rd.columns.sameElements(Array("ts", "id")))
        for (g <- 0 until rd.numGroups) {
          gotTs ::= rd.readChunk(g, 0).decodeAll()
          gotId ::= rd.readChunk(g, 1).decodeAll()
        }
      }
      // executor task order is nondeterministic across files; compare as sorted multisets
      assert(gotTs.flatten.sorted.sameElements(ts.sorted))
      assert(gotId.flatten.sorted.sameElements(id.sorted))
    }
  }

  test("zone maps match chunk min/max") {
    val (dir, _, _) = writeSample(Encoding.LecoFix, "zones")
    for (f <- LecoTable.partFiles(dir)) {
      val rd = new LecoFileReader(f)
      for (g <- 0 until rd.numGroups; c <- 0 until 2) {
        val vals = rd.readChunk(g, c).decodeAll()
        val (lo, hi) = rd.zone(g, c)
        assert(lo == vals.min && hi == vals.max)
      }
    }
  }

  test("filterScan returns exactly the brute-force result (all encodings)") {
    val results = for ((encName, enc) <- Seq("Default" -> Encoding.Default,
                                             "FOR" -> Encoding.For, "LeCo" -> Encoding.LecoFix)) yield {
      val (dir, ts, id) = writeSample(enc, s"fs_$encName")
      val pred = TimeOfDayPredicate(1000, 200, 260)
      val got = LecoTable.filterScan(dir, "ts", pred, "id").sorted
      val brute = ts.zip(id).collect { case (t, i) if pred.test(t) => i }.sorted
      assert(got.sameElements(brute), s"$encName mismatch: ${got.length} vs ${brute.length}")
      got.toSeq
    }
    assert(results.distinct.size == 1, "all encodings must agree")
  }

  test("bitmapSelect returns the values at the requested global positions") {
    val (dir, ts, _) = writeSample(Encoding.LecoFix, "bm")
    // positions are global row indices in file/group order — recover the
    // stored order first, then check value-for-position
    val stored = {
      val buf = scala.collection.mutable.ArrayBuffer[Long]()
      for (f <- LecoTable.partFiles(dir)) {
        val rd = new LecoFileReader(f)
        for (g <- 0 until rd.numGroups) buf ++= rd.readChunk(g, 0).decodeAll()
      }
      buf.toArray
    }
    assert(stored.sorted.sameElements(ts.sorted))
    val r = new scala.util.Random(6)
    val positions = Array.fill(500)(r.nextInt(stored.length).toLong).distinct.sorted
    val got = LecoTable.bitmapSelect(dir, "ts", positions)
    positions.indices.foreach(i => assert(got(i) == stored(positions(i).toInt)))
  }

  test("zstd-compressed files are smaller and read identically") {
    val (dirPlain, ts, _) = writeSample(Encoding.LecoFix, "z0")
    val (dirZ, _, _)      = writeSample(Encoding.LecoFix, "z1", zstd = true)
    assert(LecoTable.totalSizeBytes(dirZ) < LecoTable.totalSizeBytes(dirPlain))
    val a = LecoTable.filterScan(dirPlain, "ts", RangePredicate(ts(100), ts(5000)), "id").sorted
    val b = LecoTable.filterScan(dirZ, "ts", RangePredicate(ts(100), ts(5000)), "id").sorted
    assert(a.sameElements(b))
  }

  test("LeCo files are smaller than FOR which are smaller than Default on sorted ts") {
    import spark.implicits._
    val n = 60_000
    var t = 5L
    val r = new scala.util.Random(8)
    val ts = Array.fill(n) { t += r.nextInt(6); t }
    val df = spark.sparkContext.parallelize(ts.toSeq, 2).toDF("ts")
    val sizes = Seq(Encoding.Default, Encoding.For, Encoding.LecoFix).map { e =>
      val d = s"$base/size_$e"
      LecoWriter.write(df, d, e, partSize = 1024, rowGroupRows = 16384)
      LecoTable.totalSizeBytes(d)
    }
    assert(sizes(2) < sizes(1), s"LeCo ${sizes(2)} !< FOR ${sizes(1)}")
    assert(sizes(1) < sizes(0), s"FOR ${sizes(1)} !< Default ${sizes(0)}")
  }

  /** The messages of `e` and of its causes. */
  private def messages(e: Throwable): String =
    Iterator.iterate(e)(_.getCause).takeWhile(_ != null).map(_.getMessage).mkString(" / ")

  /** `(ts, id)` rows in 4 Spark partitions of 12 000, 0, 5000 and 7 rows:
    * with 5000-row groups, they have several groups, none, one exactly full
    * group and one partial group.
    */
  private lazy val partitioned: (DataFrame, Seq[Seq[(Long, Long)]]) = {
    import spark.implicits._
    val sizes = Seq(12_000, 0, 5000, 7)
    val r = new scala.util.Random(9)
    var t = -1L << 40
    val parts = sizes.map(n => Seq.fill(n) {
      t += r.nextInt(7)
      (t, r.nextInt(50) match { case 0 => Long.MinValue; case 1 => Long.MaxValue; case _ => r.nextLong() })
    })
    val df = spark.sparkContext.parallelize(sizes.indices, sizes.size)
      .flatMap(parts(_)).toDF("ts", "id")
    assert(df.rdd.getNumPartitions == sizes.size)
    (df, parts)
  }

  for (enc <- Seq(Encoding.Default, Encoding.For, Encoding.LecoFix); zstd <- Seq(false, true))
    test(s"$enc(zstd=$zstd): the DataSourceV2 write equals LecoFileWriter byte for byte and reads back") {
      val (df, parts) = partitioned
      val dir = s"$base/bytes_${enc}_$zstd"
      LecoWriter.write(df, dir, enc, partSize = 256, zstd = zstd, rowGroupRows = 5000)
      val files = LecoTable.partFiles(dir)
      assert(files.map(_.getName).toSeq == parts.indices.map(i => f"part-$i%05d.leco"))
      for ((rows, f) <- parts.zip(files)) {
        val direct = new File(s"$base/direct_${enc}_$zstd.leco")
        val w = new LecoFileWriter(direct, Seq("ts", "id"), LecoWriteOptions(enc, 256, zstd, 5000))
        rows.foreach { case (t, i) => w.addRow(Array(t, i)) }
        w.close()
        assert(Files.readAllBytes(f.toPath).sameElements(Files.readAllBytes(direct.toPath)), f)
      }
      val back = spark.read.format("leco").load(dir).collect().map(r => (r.getLong(0), r.getLong(1)))
      assert(back.sorted.sameElements(parts.flatten.sorted))
    }

  /** Asserts that `file`, written from `rows` with `(enc, partSize, zstd,
    * groupRows)`, holds each group's chunk as `ChunkCodec.encode` of the
    * group's values, read at the reader's offsets, with the group's min and
    * max as its zone map.
    */
  private def assertChunksEncodeGroups(file: File, rows: Seq[(Long, Long)], enc: Encoding, partSize: Int,
                                       zstd: Boolean, groupRows: Int): Unit = {
    val r = new LecoFileReader(file)
    val groups = rows.grouped(groupRows).toSeq
    assert(r.numGroups == groups.size, file)
    val raf = new java.io.RandomAccessFile(file, "r")
    try for ((group, g) <- groups.zipWithIndex; c <- 0 until 2) {
      val vals = group.map(row => if (c == 0) row._1 else row._2).toArray
      val (_, _, _, offs, lens) = r.groups(g)
      val stored = new Array[Byte](lens(c))
      raf.seek(offs(c)); raf.readFully(stored)
      assert(r.groupRows(g) == vals.length)
      assert(stored.sameElements(ChunkCodec.encode(vals, enc, partSize, zstd)), s"$file group $g column $c")
      assert(r.zone(g, c) == ((vals.min, vals.max)), s"$file group $g column $c")
    } finally raf.close()
  }

  for (enc <- Seq(Encoding.Default, Encoding.For, Encoding.LecoFix); zstd <- Seq(false, true))
    test(s"$enc(zstd=$zstd): every chunk written is ChunkCodec.encode of its group, through every writer") {
      val (df, parts) = partitioned
      // 5000 rows a group hold partial partitions of 256 and end with a short
      // group; groups of 100 are shorter than one partition of 256
      for (groupRows <- Seq(5000, 100)) {
        val opts = Map("encoding" -> enc.toString, "partSize" -> "256", "zstd" -> zstd.toString,
                       "rowGroupRows" -> groupRows.toString)
        val viaFormat = s"$base/oracle_format_${enc}_${zstd}_$groupRows"
        df.write.format("leco").mode("overwrite").options(opts).save(viaFormat)
        val viaWriter = s"$base/oracle_writer_${enc}_${zstd}_$groupRows"
        LecoWriter.write(df, viaWriter, enc, partSize = 256, zstd = zstd, rowGroupRows = groupRows)
        for (dir <- Seq(viaFormat, viaWriter); (rows, f) <- parts.zip(LecoTable.partFiles(dir)))
          assertChunksEncodeGroups(f, rows, enc, 256, zstd, groupRows)
        for ((rows, i) <- parts.zipWithIndex) {
          val direct = new File(s"$base/oracle_direct_${enc}_${zstd}_${groupRows}_$i.leco")
          val w = new LecoFileWriter(direct, Seq("ts", "id"), LecoWriteOptions(enc, 256, zstd, groupRows))
          rows.foreach { case (t, id) => w.addRow(Array(t, id)) }
          w.close()
          assertChunksEncodeGroups(direct, rows, enc, 256, zstd, groupRows)
        }
      }
    }

  test("LecoWriter.write stores each non-BIGINT column as Spark's CAST to BIGINT, and a BIGINT frame as it is") {
    import spark.implicits._
    val df = Seq(("1969-12-31 23:59:58.75", Int.MinValue, Long.MinValue), ("1970-01-01 00:00:00", -1, 0L),
                 ("2024-02-29 12:34:56.789", Int.MaxValue, Long.MaxValue), ("9999-12-31 23:59:59", 7, -7L))
      .toDF("t", "i", "l").selectExpr("CAST(t AS TIMESTAMP) AS t", "i", "l")
    val dir = s"$base/casts"
    LecoWriter.write(df, dir, Encoding.LecoFix)
    def rows(d: DataFrame) = d.collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2))).sorted.toSeq
    assert(rows(spark.read.format("leco").load(dir)) ==
             rows(df.selectExpr("CAST(t AS BIGINT)", "CAST(i AS BIGINT)", "CAST(l AS BIGINT)")))
    // Spark casts no DATE to BIGINT, and neither does the write
    val dates = Seq("2024-01-01").toDF("s").selectExpr("CAST(s AS DATE) AS d")
    val cast = intercept[Exception](dates.selectExpr("CAST(d AS BIGINT)").collect())
    val write = intercept[Exception](LecoWriter.write(dates, s"$base/dates", Encoding.LecoFix))
    assert(write.getClass == cast.getClass && messages(write).contains("cannot cast \"DATE\" to \"BIGINT\""),
           messages(write))
    assert(!new File(s"$base/dates").exists)
    val longs = spark.range(-500, 1500, 3, 3).selectExpr("id AS a", "id * 1000003 AS b")
    LecoWriter.write(longs, s"$base/longs", Encoding.For, partSize = 64, rowGroupRows = 100)
    assert(rows(spark.read.format("leco").load(s"$base/longs").selectExpr("a", "b", "a")) ==
             rows(longs.selectExpr("a", "b", "a")))
  }

  test("LecoWriteOptions rejects partSize <= 0, naming it; no file is made") {
    for (enc <- Seq(Encoding.Default, Encoding.For, Encoding.LecoFix); size <- Seq(0, -3)) {
      val f = new File(s"$base/partsize_${enc}_$size.leco")
      val e = intercept[IllegalArgumentException](
        new LecoFileWriter(f, Seq("v"), LecoWriteOptions(enc, size, zstd = false, 100)))
      assert(e.getMessage.contains(s"partSize $size is not positive"), e.getMessage)
      assert(!f.exists)
    }
  }

  test("integral columns of any width are cast exactly; other types are rejected before writing") {
    import spark.implicits._
    val ints = Seq(Int.MinValue, -70_000, -1, 0, 1, Int.MaxValue)
    val df = ints.map(i => (i, (i % 30_000).toShort, (i % 100).toByte)).toDF("i", "s", "b")
    val dir = s"$base/ints"
    df.write.format("leco").mode("overwrite").save(dir)
    val back = spark.read.format("leco").load(dir)
    assert(back.schema.fields.forall(_.dataType.typeName == "long"))
    assert(back.collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2))).sorted.toSeq ==
             ints.map(i => (i.toLong, (i % 30_000).toLong, (i % 100).toLong)).sorted)
    for (other <- Seq(Seq(1.5, -2.5).toDF("x"), Seq("1", "-2").toDF("x"))) {
      val d = s"$base/other_${other.schema.head.dataType.typeName}"
      val e = intercept[Exception](other.write.format("leco").mode("overwrite").save(d))
      assert(messages(e).contains("integral columns only"), messages(e))
      assert(!new File(d).exists)
    }
  }

  test("a null fails the write, names its column, and leaves no part file") {
    val df = spark.range(0, 20_000, 1, 4).selectExpr("id AS ts", "IF(id = 15000, NULL, id) AS v")
    val dir = s"$base/nulls"
    for (write <- Seq[() => Unit](
           () => LecoWriter.write(df, dir, Encoding.LecoFix),
           () => df.write.format("leco").mode("overwrite").save(dir))) {
      val e = intercept[Exception](write())
      assert(messages(e).contains("null in column v"), messages(e))
      assert(LecoTable.partFiles(dir).isEmpty)
      assert(new File(dir).list().isEmpty, new File(dir).list().mkString(", "))
    }
  }

  test("an overwrite removes the staging directory an earlier job left") {
    val dir = s"$base/staged"
    val leftover = new File(dir, LecoBatchWrite.StagingPrefix + "earlier-job")
    leftover.mkdirs()
    Files.writeString(new File(leftover, ".part-00000.leco.5.tmp").toPath, "a task file of a failed job")
    LecoWriter.write(spark.range(0, 1000, 1, 2).toDF("ts"), dir, Encoding.LecoFix)
    assert(new File(dir).list().sorted.toSeq == Seq("part-00000.leco", "part-00001.leco"))
  }

  test("a DataWriter handed a null row fails naming the column, and its abort deletes its file") {
    val dir = Files.createTempDirectory(new File(base).toPath, "writer").toFile
    val w = LecoDataWriterFactory(dir.getPath, Array("ts", "v"), LecoWriteOptions(Encoding.For, 64, zstd = false, 16))
      .createWriter(3, 7L)
    (0 until 40).foreach(i => w.write(InternalRow(i.toLong, -i.toLong)))
    val e = intercept[IllegalArgumentException](w.write(InternalRow(40L, null)))
    assert(e.getMessage.contains("column v"), e.getMessage)
    assert(dir.list().toSeq == Seq(".part-00003.leco.7.tmp") && LecoTable.partFiles(dir.getPath).isEmpty)
    w.abort()
    assert(dir.list().isEmpty)
  }

  test("overwrite removes only the part files; append onto a table fails and leaves it as it was") {
    val df = spark.range(0, 1000, 1, 2).toDF("ts")
    val dir = s"$base/modes"
    new File(dir).mkdirs()
    Files.writeString(new File(dir, "notes.txt").toPath, "kept")
    Files.writeString(new File(dir, "part-00009.leco").toPath, "stale")
    LecoWriter.write(df, dir, Encoding.LecoFix)
    assert(new File(dir, "notes.txt").exists)
    assert(LecoTable.partFiles(dir).map(_.getName).toSeq == Seq("part-00000.leco", "part-00001.leco"))
    val before = LecoTable.partFiles(dir).map(f => Files.readAllBytes(f.toPath).toSeq).toSeq
    val e = intercept[Exception](df.write.format("leco").mode("append").save(dir))
    assert(messages(e).contains("cannot append to the leco table"), messages(e))
    assert(LecoTable.partFiles(dir).map(f => Files.readAllBytes(f.toPath).toSeq).toSeq == before)
    val fresh = s"$base/appended"
    df.write.format("leco").mode("append").save(fresh)
    assert(spark.read.format("leco").load(fresh).count() == 1000)
  }
}
