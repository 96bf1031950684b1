package repro.perfbench

import Main.{Metric, median}

/** Per-layer metrics of a traced run.
  *
  * `own` holds the workload's own ops and `probe` the probe ops. A metric
  * comes from the own ops when they reached its layer, and from the probes
  * otherwise, so each workload reports every layer on its own inputs. Times
  * in `_ms` are the median over ops of the op's summed self time in that
  * layer; `_ns_per_value` and `_gbps` divide total self time by total work;
  * counts are the mean per op, since in a mix most queries may count 0.
  */
object Layers {
  /** Spans `LecoPartitionReader` runs inside one reader drain. */
  private val ReaderLayers = Seq("file.open", "file.read", "chunk.deserialize", "chunk.scan", "chunk.gather", "chunk.decode_all")

  def metrics(own: Trace, probe: Trace, overheadFrac: Double, defectPairs: Int): Seq[Metric] = {
    def source(reached: Trace => Boolean): Trace =
      if (reached(own)) own else if (reached(probe)) probe else sys.error("layer reached by no op")
    def spanSource(name: String): Trace = source(_.totals(name).nonEmpty)

    def ms(name: String): Double = median(spanSource(name).perOpSelfNs(name)) / 1e6
    def nsPer(name: String): Double = { val (ns, work) = spanSource(name).totals(name).get; ns.toDouble / work }
    /** Eight-byte values per nanosecond, i.e. GB/s. */
    def gbps(name: String): Double = 8.0 / nsPer(name)
    def perOpCount(name: String): Double = {
      val counts = source(_.countTotal(name).nonEmpty).perOpCount(name)
      counts.sum.toDouble / counts.length
    }
    def ratio(num: String, den: String): Double = {
      val t = source(_.countTotal(num).nonEmpty)
      t.countTotal(num).get.toDouble / t.countTotal(den).get
    }

    // Hand-off: a drain's time minus the layer calls it makes, replayed.
    val q = spanSource("dsv2.reader_drain")
    val drain = q.perOpDurNs("dsv2.reader_drain")
    val layers = ReaderLayers.map(q.perOpDurNs)
    val handoff = drain.map { case (op, ns) => ns - layers.map(_.getOrElse(op, 0L)).sum }
    val plan = q.perOpDurNs("dsv2.plan")
    val slowest = q.perOpMaxNs("dsv2.reader_drain")
    val engine = q.perOpDurNs("spark.exec").collect { case (op, ns) if plan.contains(op) => ns - plan(op) - slowest(op) }

    val unpack = nsPer("bitpack.unpack")
    val decode = nsPer("leco.decode")
    val schemes = CodecOps.Schemes.map(_._1).flatMap { k =>
      Seq(
        Metric(s"codec.$k.encode_gbps", gbps(s"codec.$k.compress"), "GB/s"),
        Metric(s"codec.$k.decode_gbps", gbps(s"codec.$k.decompress"), "GB/s"),
        Metric(s"codec.$k.access_ns", nsPer(s"codec.$k.get"), "ns"),
        Metric(s"codec.$k.accounted_bytes_per_value", ratio(s"codec.$k.accounted_bytes", s"codec.$k.values"), "B"),
      )
    }

    Seq(
      Metric("bitpack.unpack_ns_per_value", unpack, "ns"),
      Metric("bitpack.pack_ns_per_value", nsPer("bitpack.pack"), "ns"),
      Metric("regressor.fit_ns_per_value", nsPer("regressor.fit"), "ns"),
      Metric("partitioner.fixed_search_ms", ms("partitioner.fixed_search"), "ms"),
      Metric("partitioner.variable_ms", ms("partitioner.variable"), "ms"),
      Metric("leco.encode_ns_per_value", nsPer("leco.encode"), "ns"),
      Metric("leco.decode_ns_per_value", decode, "ns"),
      Metric("leco.model_overhead_ns_per_value", decode - unpack, "ns"),
      Metric("leco.get_ns", nsPer("leco.get"), "ns"),
      Metric("leco.corrections_per_mvalue", ratio("leco.corrections", "leco.values") * 1e6, "count"),
    ) ++ schemes ++ Seq(
      Metric("chunk.encode_ms", ms("chunk.encode"), "ms"),
      Metric("chunk.deserialize_ms", ms("chunk.deserialize"), "ms"),
      Metric("file.open_ms", ms("file.open"), "ms"),
      Metric("file.read_ms", ms("file.read"), "ms"),
      Metric("file.bytes_read", perOpCount("file.bytes_read"), "B"),
      Metric("chunk.scan_ms", ms("chunk.scan"), "ms"),
      Metric("chunk.gather_ms", ms("chunk.gather"), "ms"),
      Metric("chunk.decode_all_ms", ms("chunk.decode_all"), "ms"),
      Metric("zone.groups_skipped", perOpCount("zone.groups_skipped"), "count"),
      Metric("scan.positions_matched", perOpCount("scan.positions_matched"), "count"),
      Metric("direct.filter_scan_ms", ms("direct.filter_scan"), "ms"),
      Metric("dsv2.plan_ms", ms("dsv2.plan"), "ms"),
      Metric("dsv2.reader_drain_ms", ms("dsv2.reader_drain"), "ms"),
      Metric("dsv2.handoff_ms", median(handoff) / 1e6, "ms"),
      Metric("dsv2.rows_emitted_per_match", ratio("dsv2.rows_emitted", "query.rows_matched"), "ratio"),
      Metric("spark.exec_ms", ms("spark.exec"), "ms"),
      Metric("spark.engine_ms", median(engine) / 1e6, "ms"),
      Metric("writer.write_ms", ms("writer.write"), "ms"),
      Metric("parquet.query_p50_ms", ms("parquet.query"), "ms"),
      Metric("parquet.write_ms", ms("parquet.write"), "ms"),
      Metric("parquet.bytes_per_value", ratio("parquet.bytes", "parquet.values"), "B"),
      Metric("tracing.overhead_frac", overheadFrac, "ratio"),
      Metric("probe.failed_pairs", defectPairs.toDouble, "count"),
    )
  }
}
