package repro.experiments

import repro.core.{LecoFixCodec, LecoVarCodec}
import repro.core.pla.AngleCodec
import repro.data.Datasets

/** §4.7 (Fig 15/16): LeCo-var vs the angle-based PLA partitioner
  * (LeCo-angle) — compression ratios across the integer data sets, and the
  * hyper-parameter sensitivity sweep (ε in bits for angle, τ for var) on
  * the booksale data set.
  */
object PartitionerBench {

  final case class Fig15Row(dataset: String, lecoFix: Double, lecoVar: Double,
                            lecoAngle: Double)
  final case class SweepRow(scheme: String, param: Double, ratio: Double)

  def fig15(scaleDiv: Int = 400): Seq[Fig15Row] =
    Datasets.integerDatasets(scaleDiv).map { ds =>
      Fig15Row(ds.name,
               new LecoFixCodec(0).ratio(ds.values, ds.rawBytesPerValue),
               new LecoVarCodec(0.1).ratio(ds.values, ds.rawBytesPerValue),
               new AngleCodec(8).ratio(ds.values, ds.rawBytesPerValue))
    }

  /** ε swept 3..13 bits (angle), τ swept 0..0.2 (var), on booksale. */
  def fig16(scaleDiv: Int = 400): Seq[SweepRow] = {
    val ds = Datasets.integerDatasets(scaleDiv).find(_.name == "booksale").get
    val angle = (3 to 13 by 2).map { eps =>
      SweepRow("LeCo-angle(eps)", eps.toDouble, new AngleCodec(eps).ratio(ds.values, ds.rawBytesPerValue))
    }
    val vr = Seq(0.0, 0.05, 0.1, 0.15, 0.2).map { tau =>
      SweepRow("LeCo-var(tau)", tau, new LecoVarCodec(tau).ratio(ds.values, ds.rawBytesPerValue))
    }
    angle ++ vr
  }

  def format15(rows: Seq[Fig15Row]): String = {
    val sb = new StringBuilder
    sb ++= f"${"dataset"}%-12s ${"LeCo-fix"}%9s ${"LeCo-var"}%9s ${"LeCo-angle"}%11s ${"angle/var"}%10s\n"
    for (r <- rows)
      sb ++= f"${r.dataset}%-12s ${r.lecoFix * 100}%8.2f%% ${r.lecoVar * 100}%8.2f%% ${r.lecoAngle * 100}%10.2f%% ${r.lecoAngle / r.lecoVar}%9.2fx\n"
    sb.toString
  }

  def format16(rows: Seq[SweepRow]): String = {
    val sb = new StringBuilder
    sb ++= f"${"scheme"}%-16s ${"param"}%6s ${"ratio"}%8s\n"
    for (r <- rows) sb ++= f"${r.scheme}%-16s ${r.param}%6.2f ${r.ratio * 100}%7.2f%%\n"
    sb.toString
  }
}
