package repro.perfbench

import java.io.File

/** Entry point of one benchmark run; `perfbench/run.py` builds and calls it.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *      --work-dir <dir> --trace-out <file> [--size full|tiny]
  * }}}
  *
  * Prints, as the last line of standard output, one JSON object with
  * `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
  * with `--trace 0`, the per-layer metrics with `--trace 1`. Everything else
  * goes to standard error.
  */
object Main {
  final case class Metric(name: String, value: Double, unit: String)

  /** Set-up repetitions whose median is `setup_s`. */
  val SetupReps = 3

  /** Any failure ends the JVM at once, without a result; Spark's threads
    * would otherwise keep it alive.
    */
  def main(args: Array[String]): Unit =
    try run(args)
    catch { case e: Throwable => e.printStackTrace(); System.exit(1) }

  private def run(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workDir = new File(opt("work-dir"))
    val sizes = opts.getOrElse("size", "full") match {
      case "full" => Sizes.Full
      case "tiny" => Sizes.Tiny
      case s      => throw new IllegalArgumentException(s"unknown --size $s")
    }
    val seconds = opt("seconds").toDouble
    val traced = opt("trace") match { case "0" => false; case "1" => true }
    val env = new Env(opt("seed").toLong, sizes, workDir)
    val w = Workload(opt("workload"), env)

    val total = new Tally
    val setupS = (1 to SetupReps).map(_ => Tally.timed(w.setup())._2 / 1e9)
    Console.err.println(s"[perfbench] set-up seconds: ${setupS.mkString(", ")}")
    w.prepare()
    // warm-up fills the page cache and lets the JIT settle; answers still count
    val (warm, warmNs) = Tally.timed(loop(w, Trace.Off, w.warmSeconds))
    total.add(warm)
    Console.err.println(s"[perfbench] warm-up: ${warm.latNs.length} ops in ${warmNs / 1e9} s")

    val metrics =
      if (!traced) {
        val t = loop(w, Trace.Off, seconds)
        total.add(t)
        endToEnd(t, setupS, w.storedBytesPerValue)
      } else {
        val untraced = loop(w, Trace.Off, seconds / 2)
        val own = new Trace(true)
        val tracedOps = loop(w, own, seconds / 2)
        val probe = new Trace(true)
        val probes = new Tally
        w.probe(probe, probes)
        val defects = CodecOps.defectFailures(Inputs.defectProbes(env.seed, 4096), env.seed)
        defects.foreach(d => Console.err.println(s"[perfbench] known-defect probe failed: $d"))
        Seq(untraced, tracedOps, probes).foreach(total.add)
        val out = new File(opt("trace-out"))
        out.getParentFile.mkdirs()
        own.writeTo(new File(out.getPath + ".ops.tsv"))
        probe.writeTo(new File(out.getPath + ".probes.tsv"))
        Layers.metrics(own, probe, overheadFrac = median(tracedOps.latNs) / median(untraced.latNs) - 1,
                       defectPairs = defects.length)
      }
    env.stop()

    metrics.find(m => m.value.isNaN || m.value.isInfinite).foreach(m => sys.error(s"metric ${m.name} is ${m.value}"))
    val body = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""").mkString(", ")
    println(s"""{"correct": ${total.failed == 0}, "attempted": ${total.attempted}, "failed": ${total.failed}, "metrics": {$body}}""")
    System.exit(0)
  }

  /** Closed loop, one client: whole cycles until `seconds` have passed. */
  private def loop(w: Workload, tr: Trace, seconds: Double): Tally = {
    val t = new Tally
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    do w.cycle(tr, t) while (System.nanoTime() < deadline)
    t
  }

  def median(xs: Iterable[Long]): Double = quantile(xs.map(_.toDouble), 0.5)

  /** Linear interpolation between closest ranks. */
  def quantile(xs: Iterable[Double], q: Double): Double = {
    val s = xs.toArray.sorted
    require(s.nonEmpty, "quantile of no samples")
    val pos = q * (s.length - 1)
    val lo = pos.toInt
    if (lo + 1 >= s.length) s(lo) else s(lo) + (pos - lo) * (s(lo + 1) - s(lo))
  }

  private def endToEnd(t: Tally, setupS: Seq[Double], storedBytesPerValue: Double): Seq[Metric] = {
    val busyS = t.latNs.sum / 1e9
    val lat = t.latNs.map(_ / 1e6)
    Console.err.println(s"[perfbench] ${t.latNs.length} ops measured")
    Seq(
      Metric("latency_p50_ms", quantile(lat, 0.5), "ms"),
      Metric("latency_p75_ms", quantile(lat, 0.75), "ms"),
      Metric("ops_per_s", t.latNs.length / busyS, "1/s"),
      Metric("mrows_per_s", t.rows / busyS / 1e6, "Mrows/s"),
      Metric("stored_bytes_per_value", storedBytesPerValue, "B"),
      Metric("retained_heap_mb", retainedHeapMb(), "MB"),
      Metric("setup_s", quantile(setupS, 0.5), "s"),
    )
  }

  /** Heap in use after full collections, with the run's inputs still live. */
  private def retainedHeapMb(): Double = {
    val rt = Runtime.getRuntime
    (1 to 3).map { _ => System.gc(); Thread.sleep(200); (rt.totalMemory - rt.freeMemory) / 1048576.0 }.min
  }
}
