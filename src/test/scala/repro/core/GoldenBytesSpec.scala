package repro.core

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.core.baseline._
import repro.data.Datasets

/** Pins the bytes of the auto-sized codecs on `codec_micro`'s nine data sets
  * (`Datasets.integerDatasets(1000, 20000)`): the partition size the search
  * chooses (the partition count for LeCo-var) and the SHA-256 of `toBytes`.
  * A speed change to the fit, the search or the sample must leave every
  * line as it is.
  */
class GoldenBytesSpec extends AnyFunSuite {

  private lazy val datasets = Datasets.integerDatasets(1000, 20000).map(d => d.name -> d.values)

  private def sha256(bytes: Array[Byte]): String =
    MessageDigest.getInstance("SHA-256").digest(bytes).map("%02x".format(_)).mkString

  private def pinned(codec: String, expected: Map[String, (Int, String)])
                    (compress: Array[Long] => (Int, ByteLayout)): Unit =
    test(s"$codec: chosen partitioning and bytes on the nine codec_micro data sets are pinned") {
      assert(datasets.map(_._1).toSet == expected.keySet)
      for ((name, values) <- datasets) {
        val (size, c) = compress(values)
        assert((size, sha256(c.toBytes)) == expected(name), s"$codec on $name")
      }
    }

  pinned("FOR", Map(
    "linear"      -> (96,    "2a378d91dc70e7085ddd88d82547d97ccf54d4ca0c9af1dcfe796e242795e2ca"),
    "normal"      -> (64,    "d4f9f517be3a35ed115964394310c488a6f329d046c5e3cc8f23b5edbeab868f"),
    "poisson"     -> (64,    "2bbb33492fd9b0fbdb9400b8686cafbbdae4c6318799e329d2d488d4e7e3f681"),
    "ml"          -> (48,    "a06a7b6827623001678f688180203c907b47218d1228682d19642c013a01c4fd"),
    "booksale"    -> (512,   "1d33bb712062c7fe2c319f5795d977ce1dde4726f6765248c796afed86b843e7"),
    "facebook"    -> (64,    "e6b43765cb1043de9d9b9403760ec242cdd9f3e00aa899c2cbc6f412c0f3f323"),
    "wiki"        -> (64,    "8c560d95f45e6628ba44b746c3587525c5ef6de08605e8353d9455ab3b962a4a"),
    "movieid"     -> (16384, "81de3266d67a4aaf6012fba68e2bb99c2c50e66c82738e4579b8b92deea09aca"),
    "house_price" -> (48,    "e615dd8e864df3c8bb4d052ad42223c4c53efe258d32156003dd8ddd431859e9"),
  )) { vs => val c = new ForCodec().compress(vs); (c.partSize, c) }

  pinned("Delta-fix", Map(
    "linear"      -> (8192, "27dd1a22ae49e353114e9d7318b622bc08a069107be60e9befe68d49e77261e5"),
    "normal"      -> (512,  "4474c1d3f3c2ada74bee121255b84f9a28adcbea5a23047fc89e0cacb9fbdb96"),
    "poisson"     -> (512,  "2bed86f7da7149e6291d939a84084a46983f8e3610a33ed4152b38bfe6af81f8"),
    "ml"          -> (128,  "7a20631e16e7b28323f0fa31e102c18f8510e16df9658cb4147bd206218bf8d2"),
    "booksale"    -> (512,  "3d933142358755b93b14b2029f9826fafc45c81364606d88a2e626b752e3f45c"),
    "facebook"    -> (128,  "3dedf5106fe7c787f1bf31db33a47046dda0da3ee8228a1c56b1f64d5abf15d3"),
    "wiki"        -> (512,  "282b2e5b485850385ae7da22eaf8b3577e2f24e69b624df9a01f54222a322f4a"),
    "movieid"     -> (64,   "41fb7e3c6b28eae6bab856946769e931ec09144faa26fb4a7e53b9e25b5bcab6"),
    "house_price" -> (48,   "73fb6953cb6b5de16c7400b60d0c42b30acc60ff7f94a662b58d8311effe6cd9"),
  )) { vs => val c = new DeltaFixCodec().compress(vs); (c.partSize, c) }

  pinned("LeCo-fix", Map(
    "linear"      -> (8192, "5115429900bf10a8a4a1b6d92049ea1e2158b8504b90539915b0894c42e5a02b"),
    "normal"      -> (256,  "919564c8041835e1d0043c3a7895968f6a8839b5d2d350d22384c50fd334ef38"),
    "poisson"     -> (512,  "0078ba14eea59235ba00f1827e41fb1e3092e1f6a83242b45a895c233dbfbe60"),
    "ml"          -> (96,   "64efb16ea8fea14c725315796d230322cbfa6fef7c131df640c96a3fd9adc20c"),
    "booksale"    -> (1024, "1e17bbe659e7d2a922973d072e1fce48a0cee4d6d08cc2517e06223ae614d37d"),
    "facebook"    -> (128,  "9af60510082b5be619dd7dff49274406f1a9879e1b81483fc2194d9c8c16438e"),
    "wiki"        -> (256,  "4d154fd9060f3457c1cff29316d26bd9c49e6dd40b8facf121f9138c543d208a"),
    "movieid"     -> (64,   "67421e1748e1df66394151f678010beadf14b035c89bc9b7445a5d8887e0e337"),
    "house_price" -> (48,   "ff5988815cc27910c306a35e7955be88c08a08943876fdf6b84a947e368c64d4"),
  )) { vs => val c = new LecoFixCodec().compress(vs); (c.partSize, c) }

  pinned("LeCo-var", Map(
    "linear"      -> (1,  "4950d0760b817d0b46b0eb3f25ab6404828946a15f1e5c3471135b55e5b9e5ca"),
    "normal"      -> (50, "33433637fcd8ec479980910b5da43976c6f825f150f4b8381e9b2a4fb2ba2465"),
    "poisson"     -> (22, "33c9078652610e6b5bf60e6db96c8e7610a28ba7c1fb7b85bb1c993e39514cf6"),
    "ml"          -> (1,  "50b62201d285cd08f3950d002dbc82657e3b9be1f7d84213b9ca9d4433cf7c48"),
    "booksale"    -> (86, "3e5b33baeafccf99836a7fed2262264e180a530848069dac4cfd4077aef0f2fc"),
    "facebook"    -> (46, "e323c6a527fe03ebc32d2f9b029352286909c4e6b4c50a18e52bba8f9e08f8d3"),
    "wiki"        -> (61, "4e9b073a4b1c464e18ffbaf074433ec61a55ca9c5c33aa14cffaaff6ea65b44b"),
    "movieid"     -> (95, "45121208b8be005a0225561b71ad0d7512b1f5eebcddcaa9d0dfa53d3cecdcb6"),
    "house_price" -> (2,  "a7de2b99466bd36e530c91a40e1fc8c781e674cf2effdd996923b08220d21fcd"),
  )) { vs => val c = new LecoVarCodec().compress(vs); (c.starts.length, c) }
}
