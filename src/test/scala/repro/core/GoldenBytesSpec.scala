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
    "linear"      -> (8192, "7d16f613298aab29d12498858c0745aeeafb3c8062e3afd139a35a2352441b90"),
    "normal"      -> (256,  "46e15b88f3da5811a8b688b42ff7f2654b4ae2812968c5ad3829d7f4bc02e81a"),
    "poisson"     -> (512,  "5a66e9608df35b000802e983d97e3068c7586edad420299da5c2d72a5b099a49"),
    "ml"          -> (96,   "6e46042887233a4497f4fe40fc59c30fbe8a4df4354cc95aba83dbafcee9d66c"),
    "booksale"    -> (1024, "976d955555fe0c2ba56ebd15996f1ffdfec8a60b270d1f1cc133f54371153cb8"),
    "facebook"    -> (128,  "88f4138c613d9d319d756882f9c6d6a9b570df33de298c716f5f863ac0587725"),
    "wiki"        -> (256,  "947c83295942b07d18d771f2068e270db8578a1417670de23136a2827358c6d3"),
    "movieid"     -> (64,   "c93098aacab562ccd52640d6a79188fa2d037ce1d831a9bc2bf14bbaaaab5625"),
    "house_price" -> (48,   "f282219ebc9f7ce318b7246c6192bcc4a6f4029b24dfd3f1c2ed00125f277002"),
  )) { vs => val c = new LecoFixCodec().compress(vs); (c.partSize, c) }

  pinned("LeCo-var", Map(
    "linear"      -> (1,  "d1c4b4129685bfec5800de2d33b893579167e6c1c41f50fc4af706ca9b1902ba"),
    "normal"      -> (50, "d88432e97fb46d8285053ff9b3590424b4a2b2e2095994510fd114f9ac937e3b"),
    "poisson"     -> (22, "52ea9aab094185c994babd8fb7c79ea8edcfd38f912be4e56ae5f09f6feb5aa8"),
    "ml"          -> (1,  "6f483c41876fa538701878e5d81a7f66d6a49d5b39daf7850e284f51b1c3d94f"),
    "booksale"    -> (86, "12e2a4aad6cd5a3afdb5de26396b8766321bea18c766949573c2aef04f69f266"),
    "facebook"    -> (46, "4433682787e63cc435d8b3ac5e4d8880c60e1ba80f5b08309198bddfc5642b8e"),
    "wiki"        -> (61, "6d05eb4dec6ee5ea64df229a7e107b6be5447184a20ba3e16723968e7791d471"),
    "movieid"     -> (95, "029b17bc73f2e76b2aa3823b7317041f5b8ff890bd15193513e7d8887554aad7"),
    "house_price" -> (2,  "bef525666382fe8f85c127064e20f76389504874a1b9e38a7815abb4c5f30cdd"),
  )) { vs => val c = new LecoVarCodec().compress(vs); (c.starts.length, c) }
}
