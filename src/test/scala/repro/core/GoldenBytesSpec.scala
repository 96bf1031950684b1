package repro.core

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.core.baseline._
import repro.data.Datasets

/** Pins the bytes of the auto-sized codecs, and of rANS, on `codec_micro`'s
  * nine data sets (`Datasets.integerDatasets(1000, 20000)`; Elias-Fano on
  * the sorted ones): the partition size the search chooses (the partition
  * count for LeCo-var and Delta-var, the block count for rANS) and the
  * SHA-256 of `toBytes`. A speed change to the fit, the search or the sample
  * must leave every line as it is.
  */
class GoldenBytesSpec extends AnyFunSuite {

  private lazy val datasets = Datasets.integerDatasets(1000, 20000)

  private def sha256(bytes: Array[Byte]): String =
    MessageDigest.getInstance("SHA-256").digest(bytes).map("%02x".format(_)).mkString

  /** Pins `codec` on the nine data sets, or on the sorted ones only. */
  private def pinned(codec: String, expected: Map[String, (Int, String)], sortedOnly: Boolean = false)
                    (compress: Array[Long] => (Int, CompressedInts)): Unit =
    test(s"$codec: chosen partitioning and bytes on the ${if (sortedOnly) "sorted" else "nine"} codec_micro data sets are pinned") {
      val sets = datasets.filter(d => d.fullySorted || !sortedOnly)
      assert(sets.map(_.name).toSet == expected.keySet)
      for (d <- sets) {
        val (size, c) = compress(d.values)
        assert((size, sha256(c.toBytes)) == expected(d.name), s"$codec on ${d.name}")
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

  pinned("Delta-var", Map(
    "linear"      -> (1,   "dd0d077cd31094b27d1407ef6242ca38b065af55f815e8c224272a1be7d5b389"),
    "normal"      -> (16,  "111d08ffb42e6b6d3b37ecec585f39012a2e70befd431a272e34a1d8e293df5f"),
    "poisson"     -> (2,   "19a94306971749945f1cc74807ecf6a03cffd963331cf50767e98395c7025d57"),
    "ml"          -> (1,   "720d5ac325dee30d42dbad2d882a8fe40eb409afea4c0725b582886327c0a211"),
    "booksale"    -> (181, "f496bf94172b19677aebf27c9f5124c649aeb045e25ff2ae9e00de39d257f165"),
    "facebook"    -> (46,  "5138a727435a74ca07dfc8e632f09c86e144dafa216ee7976bcd05ff60ac8d87"),
    "wiki"        -> (165, "815b38edc9bcd319f1799e615b4fd4d45d7a5627c5917f402aacf8e439681ce3"),
    "movieid"     -> (76,  "417ae9b90d0a9d80d8b3e03ac82f43f2d5aa2b27bd0fa55c013785ce0557696a"),
    "house_price" -> (174, "3a7032ecf953e4bfb50da22bf9ee4ed1b0dc8f9ced971a362f9bd6084c0d6e77"),
  )) { vs => val c = new DeltaVarCodec().compress(vs); (c.starts.length, c) }

  pinned("Elias-Fano", Map(
    "linear"      -> (8192,  "98c76391b7059334027f8cfc44bf429faa740079e407238b04f0f44d2fdf5d0e"),
    "normal"      -> (8192,  "56f82d442453d7cf8271088f5e2cc401bb13e89b030e257a7ca1a59fb7d2bcb5"),
    "ml"          -> (384,   "2fda72b17ab898375cda60b2da65c8b50586b85b975fc06827b63d267ea84388"),
    "booksale"    -> (65536, "fbec88b6f734400b9be1c476c6c65ba72b26a964e8c8b56cba7c86918a4ffd0b"),
    "facebook"    -> (256,   "26945de450b1b7b56877f6d4f0f2a9094fd3dea3ceb807f9ab1a10fa232e6e04"),
    "wiki"        -> (4096,  "9177e6ca4d2572734c05f0303ee783d7d9060578806bba3b1a1b65e9b80dd2c5"),
    "house_price" -> (96,    "3984134a1b7b467574e822eb13e783f5a7a1e62c16d72feb8a6b563b459ea72b"),
  ), sortedOnly = true) { vs => val c = new EliasFanoCodec().compress(vs); (c.partSize, c) }

  pinned("rANS", Map(
    "linear"      -> (13, "76e98b6e539dacae1aae41fc792874043ac24ec72a1e01b4bed835442e161d90"),
    "normal"      -> (13, "5397231d42a208b88aedba4fc1c33bbcb3ffd04027001320c331a8525aed63f1"),
    "poisson"     -> (6,  "34abe1cc77c9bd01add6757e508986b3b28e4c42956b2fb8b8302ab73541bea1"),
    "ml"          -> (2,  "393696da2c3135a1f985b86fdcd46be9ca1c8e368045f655809a52af481420dd"),
    "booksale"    -> (13, "70d9620357a8e736d0a61fbc5248a1730033faec3ac19db331c0351e8ac03ef0"),
    "facebook"    -> (13, "cc7cc339a0159c5ec45b9ed47d498276ad5ba22b498836bf98aea6bb3bfbb944"),
    "wiki"        -> (13, "f4058a9d01b277f4a2f51f632a01c3d6c05fa8753d9a17692527a03df1a7dcf7"),
    "movieid"     -> (2,  "1c20c1eae11333fd55d1b029569c380c02757c7128e6108b6bc1bfc007b5b0fc"),
    "house_price" -> (2,  "f612a964040168c4bcab9606b50b0dfc4543713d1854f3c0ad532a055d2e761b"),
  )) { vs => val c = new RansCodec(8).compress(vs); (c.blocks.length, c) }
}
