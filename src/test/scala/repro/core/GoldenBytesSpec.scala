package repro.core

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.core.baseline._
import repro.core.str.LecoStringCodec
import repro.data.Datasets

/** Pins the bytes of the auto-sized codecs, and of rANS, on `codec_micro`'s
  * nine data sets (`Datasets.integerDatasets(1000, 20000)`; Elias-Fano on
  * the sorted ones): the partition size the search chooses (the partition
  * count for LeCo-var and Delta-var, the block count for rANS) and the
  * SHA-256 of `toBytes`. A speed change to the fit, the search or the sample
  * must leave every line as it is. LeCo-str's size and SHA-256 are pinned
  * on small `email`, `hex` and `word` sets at both bases.
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
    "linear"      -> (4096, "cabbd39056fd28f6c3736d9b0696d202164e2e390582937d9f1330997f0d73bd"),
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
    "linear"      -> (4096, "03a832be8aaae7d4cf7d00588374ddab3a1bc41c9f0a28270a8c6cd661b013d8"),
    "normal"      -> (256,  "5afe468f0ca6c59c84c7845b04f7d0cd92498646b923de627299ebeb87ef6bdf"),
    "poisson"     -> (512,  "98e6ea5d41e5ec74a35042e0a73a577f79cb12759fc1ce8f3439a9b22aa5684c"),
    "ml"          -> (96,   "dc005ae545aa216d6261aad39d85fcce1e56c2403eaef8b5717786a47ffc4e44"),
    "booksale"    -> (512,  "27ca1a931890f543f0495983cafceac673c04abd8eb09291949671732eda5a40"),
    "facebook"    -> (128,  "f4bafcb20aac54bbbda5c031fcbeadeb8e498effd1cc87c6ea978d33737f4e83"),
    "wiki"        -> (256,  "33ac9e66639c6d489c222ea065f3a772aa1d8bf0489760410fac6890c6c6bbd6"),
    "movieid"     -> (64,   "221846ac6b58bd8ea675d637b7950038f9c4019129401a63ce883137ed930d36"),
    "house_price" -> (48,   "76fd3ef1aaf22098052bbc70a40a7419655810c4f219e04f43f28adfcbf7772a"),
  )) { vs => val c = new LecoFixCodec().compress(vs); (c.partSize, c) }

  pinned("LeCo-var", Map(
    "linear"      -> (1,  "0b5cd8771f9668ac66c7f17d41170d7c913be48583e120d147544af14c01ff98"),
    "normal"      -> (50, "78c3e48abbcfb5b3a419d25ffc28bc1ea298dc8d185c1c525bfdf04d5d1bcc5e"),
    "poisson"     -> (22, "c87576b4aec7310d435c6b77a8f1043deb22df0136a76c323a6aaaadd07c98dd"),
    "ml"          -> (1,  "863c06fc727b005640c51505655471699bb913465953c3b261b4441626597eb4"),
    "booksale"    -> (86, "b7ac816148f93f43140d747023bf42d20a1d65a5e99bed983ba495b1c6f8d1ee"),
    "facebook"    -> (46, "d6f56033f30b621937c65cd2f50b81e555403bc69cd367a1423642af4355fc61"),
    "wiki"        -> (61, "ff3aa2561725dd02891f666a53d8cc58a5598ce7c2917173dbe1feea1b794518"),
    "movieid"     -> (95, "c6f8d900c1cac70d36c989df964cc0547ae5f1e8db08f952ddc98df4136b9f1f"),
    "house_price" -> (2,  "010de69d656c393af7deb7ed39dda8efbecbf115dd8e0385b000b8cfcf7b8132"),
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
    "linear"      -> (4096,  "91c802ce03533666f4fbc755eba93f194290ff884bbbbdf7cca02f80476d9fc5"),
    "normal"      -> (4096,  "c4f186f9bc35576ebdcbff4fd595c9fcc03a772dde1d5f4176257ba0d4f5bf44"),
    "ml"          -> (384,   "2fda72b17ab898375cda60b2da65c8b50586b85b975fc06827b63d267ea84388"),
    "booksale"    -> (6144,  "6da53d6b38c14e969888ce25a0fa872a382f4ceadfad3fd3b0805f1956e594bf"),
    "facebook"    -> (256,   "26945de450b1b7b56877f6d4f0f2a9094fd3dea3ceb807f9ab1a10fa232e6e04"),
    "wiki"        -> (4096,  "9177e6ca4d2572734c05f0303ee783d7d9060578806bba3b1a1b65e9b80dd2c5"),
    "house_price" -> (96,    "3984134a1b7b467574e822eb13e783f5a7a1e62c16d72feb8a6b563b459ea72b"),
  ), sortedOnly = true) { vs => val c = new EliasFanoCodec().compress(vs); (c.partSize, c) }

  pinned("rANS", Map(
    "linear"      -> (13, "4277d34d41d571305860f582ac22acf03891061e559352d9ff0a99fa8b3278d4"),
    "normal"      -> (13, "d3285c468fccb5324d2dd381463ec1d3222a240ec2279c2a3cdd467606806970"),
    "poisson"     -> (6,  "9b8ac30e0f1c9b17692c983fef55957c3cfe162de3666e479fb0b55aaaf7d501"),
    "ml"          -> (2,  "a80392b32970d69543b7e9d90a41191725868eb046d1a5f8bb86ab8d55f56e18"),
    "booksale"    -> (13, "5449c3952bf27c3e4f4d5f6ce24064841873030e6dd111b5609cdbc29d6f939f"),
    "facebook"    -> (13, "26913de3afded3cb88a9f83bd601f7a0aaca62163152772191be44672f170332"),
    "wiki"        -> (13, "49530bdc6dd9c8230e026f720ea2bcc483280427c3426c3b14d8eef05f01594c"),
    "movieid"     -> (2,  "dcca4f5214d7a7210c819737ab928a1852b8b63a942b09f5901bcc61df79e2c0"),
    "house_price" -> (2,  "d6683f7ae2e520180c4e5a00ae37053d85d48ba4821e4fd06808742ef49a8a1d"),
  )) { vs => val c = new RansCodec(8).compress(vs); (c.blocks.length, c) }

  // Default's layout kind in place of a partitioning: 0 plain, 1 dictionary
  // (booksale's codes are 12 bits wide, house_price's 9)
  pinned("Default", Map(
    "linear"      -> (0, "49f7978a56769f6938d2b8e584d6b40f10b2db91abb0d65357991348e521679c"),
    "normal"      -> (0, "d5270cb8c9901829089f9a3752ed72d6715ce9b5bb1121901ec78839e75917cc"),
    "poisson"     -> (0, "157ee0af12049a9c51c40a25fd76daa3fcc8bebe8475a6e2fc3e564201568617"),
    "ml"          -> (0, "6f61a376255362c6b1f2232bc9ef3ddad65519bb31643d40b01b5352e640f41b"),
    "booksale"    -> (1, "ba458165f3508cf2e8757b1fdcf81147d8cb882e4663a70e11d0497896253368"),
    "facebook"    -> (0, "f4d9675f00e34e891a5d11c9a748e09969f0fb9f24ce2eace61681c727fc1444"),
    "wiki"        -> (0, "d67919990583af58c6e183b0a303e62f1b6ac18818b0a549941d25530fb3a64b"),
    "movieid"     -> (0, "e8bcffec4387c197a71bc6bf656429ae7e4a548323cae12cc140af7f6efd1418"),
    "house_price" -> (1, "d72267a865d4f0192cf99833797527623ab9555a6bbe952a931448e50cd32626"),
  )) { vs => val c = DictCodec.compress(vs); (c.toBytes(0).toInt, c) }

  test("LeCo-str: bytes on the small email, hex and word sets at both bases are pinned") {
    val expected = Map(
      ("email", false) -> (13057L, "8094162de1fc8e58fc68373a667b79707a32a23b0cb6077ae3b9f8e9633cd5e1"),
      ("email", true)  -> (13062L, "9cc841fdfa0fef4f8fc1465c7384924a5b3f305b521bc484d62ed048bebafef4"),
      ("hex", false)   -> (4319L,  "61b8ee2ac0e34326a8db78aebab3423d7c85f4bba3f79f30f210422cb823e031"),
      ("hex", true)    -> (4319L,  "b2d003db5e5d8aac8ae140b47786d84d82eb9602bdff0821195d33082f834699"),
      ("word", false)  -> (19553L, "6d30dd091de3ec0809d9538f35c831e34a8fc9d00847eb4ad6c3463a3c243010"),
      ("word", true)   -> (22029L, "32eba02aceb83926840164ee4e83e1bd701bddf476ede02feca1ba0a9fe7ab30"),
    )
    for (d <- Datasets.stringDatasets(100); pow2 <- Seq(false, true)) {
      val c = new LecoStringCodec(64, pow2).compress(d.values)
      assert((c.sizeBytes, sha256(c.toBytes)) == expected((d.name, pow2)), s"${d.name}, pow2=$pow2")
    }
  }
}
