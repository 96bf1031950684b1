package repro.perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * The benchmark opens a span around each call it makes into a layer. A span
  * records its name, start, end and parent (the innermost span open when it
  * started); spans with no parent are ops, and every span carries the id of
  * its op. A span may carry `work`, the number of values or calls it
  * covered, so per-value rates come out of the same record. Counts are
  * attached to the current op. Nothing is written until [[writeTo]].
  *
  * A disabled trace runs each body and records nothing, so the untraced run
  * goes through the same code without the bookkeeping.
  */
final class Trace(val enabled: Boolean) {
  import Trace._

  private val spans = mutable.ArrayBuffer[Span]()
  private val open  = mutable.Stack[Span]()
  private val counts = mutable.ArrayBuffer[(Int, String, Long)]()

  def span[A](name: String, work: Long = 0L)(body: => A): A =
    if (!enabled) body
    else {
      val parent = open.headOption
      val s = Span(spans.length, parent.fold(-1)(_.id), parent.fold(spans.length)(_.op),
                   name, work, System.nanoTime())
      spans += s
      open.push(s)
      try body
      finally { s.end = System.nanoTime(); open.pop() }
    }

  /** Adds `n` to the count `name` of the current op. */
  def count(name: String, n: Long): Unit =
    if (enabled) {
      require(open.nonEmpty, s"count $name outside an op")
      counts += ((open.last.id, name, n))
    }

  private lazy val selfNs: Array[Long] = {
    val self = spans.map(s => s.end - s.start).toArray
    spans.foreach(s => if (s.parent >= 0) self(s.parent) -= s.end - s.start)
    self
  }

  /** Per op in which `name` occurs: the summed self time of those spans. */
  def perOpSelfNs(name: String): Seq[Long] =
    spans.indices.filter(i => spans(i).name == name)
      .groupMapReduce(i => spans(i).op)(selfNs(_))(_ + _).values.toSeq

  /** Per op in which `name` occurs: the summed duration of those spans. */
  def perOpDurNs(name: String): Map[Int, Long] =
    spans.filter(_.name == name).groupMapReduce(_.op)(s => s.end - s.start)(_ + _)

  /** Per op: the longest single span named `name`. */
  def perOpMaxNs(name: String): Map[Int, Long] =
    spans.filter(_.name == name).groupMapReduce(_.op)(s => s.end - s.start)(math.max)

  /** Total self time and total work over every span named `name`. */
  def totals(name: String): Option[(Long, Long)] = {
    val idx = spans.indices.filter(i => spans(i).name == name)
    if (idx.isEmpty) None else Some((idx.map(selfNs(_)).sum, idx.map(spans(_).work).sum))
  }

  /** Per op that recorded `name`: its summed count. */
  def perOpCount(name: String): Seq[Long] =
    counts.filter(_._2 == name).groupMapReduce(_._1)(_._3)(_ + _).values.toSeq

  def countTotal(name: String): Option[Long] = {
    val cs = counts.filter(_._2 == name)
    if (cs.isEmpty) None else Some(cs.map(_._3).sum)
  }

  def writeTo(file: File): Unit = {
    val w = new PrintWriter(file)
    try {
      w.println("id\tparent\top\tname\twork\tstart_ns\tend_ns\tself_ns")
      spans.foreach(s => w.println(s"${s.id}\t${s.parent}\t${s.op}\t${s.name}\t${s.work}\t${s.start}\t${s.end}\t${selfNs(s.id)}"))
      counts.foreach { case (op, name, n) => w.println(s"-\t-\t$op\t#$name\t$n\t-\t-\t-") }
    } finally w.close()
  }
}

object Trace {
  private final case class Span(id: Int, parent: Int, op: Int, name: String, work: Long, start: Long) {
    var end: Long = start
  }

  val Off = new Trace(false)
}
