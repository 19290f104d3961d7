#include "crypto/dh.hpp"

#include <gtest/gtest.h>

#include "util/bytes.hpp"

namespace naplet::crypto {
namespace {

TEST(DhParams, GroupsWellFormed) {
  for (DhGroup group :
       {DhGroup::kModp768, DhGroup::kModp1536, DhGroup::kModp2048}) {
    const DhParams& p = DhParams::get(group);
    EXPECT_FALSE(p.prime.is_zero());
    EXPECT_TRUE(p.prime.is_odd());
    EXPECT_EQ(p.generator.to_u64(), 2u);
    EXPECT_EQ(p.prime.bit_length(), p.key_bytes * 8);
  }
}

// Known answers, computed outside this code base. With p the group's prime
// (the hex in dh.cpp), x below and y = (p - 1) / 3:
//   python3 -c 'p = int("<prime hex>", 16); x = int("<x>", 16);
//               print(format(pow(2, x, p), "x"));
//               print(format(pow((p - 1) // 3, x, p), "x"))'
// Both sides of a key agreement running the same wrong kernel would still
// agree, so SharedSecretAgrees alone cannot catch a symmetric bug.
struct DhKnownAnswer {
  DhGroup group;
  const char* two_pow_x;  // 2^x mod p
  const char* y_pow_x;    // y^x mod p
};

constexpr const char* kKatExponent =
    "7d3c9b0e5a1f48c26e0b93d4a8f1c7e2b5d09a6f3e8c41b7d2a5f0e9c3b6a18d";

const DhKnownAnswer kKnownAnswers[] = {
    {DhGroup::kModp768,
     "c34383a4b0971f49274ef822db0118c5373e9227c05714031299009605fda822"
     "6d313b92953891763d0d52a682d4ad917184a70b1961dbdb1a7913e9096b3f6f"
     "474dabab5a03bc9a8dbb4c9df5aa16dd5ce988471122f420c092c3ba1dda74e5",
     "db7937632c3aa62882a2ca0cbee2786937779073bdb9cc6665bbbe6753dbb64e"
     "8e4a14eb1bd0e6f7b406b751997676b45d0d5688f219cf2ff69ea63068c64f32"
     "2264ee6a82e8a771ff39d4cf80e16912ce2ba9e9cb04aa85610bc8fb52634c2e"},
    {DhGroup::kModp1536,
     "ac3cc86d041a08cfae85af981a656a4f5206d4455d1ad2eb5271e48e94691681"
     "180c3bc12d61aa1c4a4505b48e3e446f51d463fdafe76f13391cdda19823f412"
     "fb615054b906c9b4fdab80b962adb82cbdadb7742e81f8f3d55409b174e310be"
     "f49d1e55d887d93af3a7083e863156a5c6e2bba0699b920c0a8cd710e2eea9fb"
     "157a7a120caeb7950ae4612bb471eecef0b1b91ec547c32e01166b89a0baf68d"
     "9eb58f10aaa1ee26fbb957d59f57a5f29a2246690f59eb4dea2ea16018c75c48",
     "c5cda541a89847178cb12c84b5322992ccb49a60c150aa01ce08f54b8b140dbb"
     "c00fda0d2c297f0de585e845e831fc9803f4729f5ac143a92f4f1240be189429"
     "342b74c07b39028d3af0109e689e604fa89e39df477ed0ce82fb18960fc8af16"
     "99956b69c070632269c924a02f51214615d18a32910677322f608fbcfd245aee"
     "91c22263ab67902cfd4fe1171f2416e07af2095a51519561fb39bee027a05586"
     "9bcf5b71093e1436679f76005b4bdc40a9fa7dd03802fc12317609398d7c0e11"},
    {DhGroup::kModp2048,
     "8c7b48de010885b3ef47c06c9c1ec585510b8e6cab5125e905990b7e6d3f5f7c"
     "ea4382ea579d637fdb2a84dd15666d6e708f081b8e6916fbefc3741f791dfb09"
     "775b560515665d6cdd9043a92737084caa375d7e504e8cd0cdddc8c0291e8ea0"
     "0f6d526be54d7288c4dbddd67c3da6f3b93d61e2d1829c27838cca6fca891942"
     "6a031f59bd9b9e523bea275347b51cb8c39f62172fb4c8560b9a94e1b2c51981"
     "187a81f9b8d59aa6d47f3f2285d33c6287a330d9b01902d3caada91c6f832d41"
     "fa81fa8652a1b244d9fb4d24ad03baf526ee6cba18784d6bb75e36741c8ffd79"
     "63362d59b0ab6523d5a2c7975d94cf86c15bdcd3533e72c834d0a5a04328175f",
     "5d73c050bfc677a98068bd8d93a9987727fe7dcd64db5a83b4e44ee8002feb97"
     "ef5e433bcaad3d9273681974c1d6b1ca3a07a0543a1515ebf01cd0ac9c32cddf"
     "9c16910335063f0bbe170d8a59576f9ce6fecca4f4b9fd4f58cfc4864f4010b6"
     "d901af84c5d668d96e040b6a94360239ea325b3aaa2bd2a774af8524a1f1f6ab"
     "dd210cde71747d47a671abbef438fa8cc316e109824cfb45c678446de43509d6"
     "840b81aacf7444fbd2f547e0670e42764663f57970c826e5f949aeddbd155c1b"
     "28b156a69e3cba723ec7155b2ac0b98b8c682f52c517165107365d6f9c7d84cb"
     "4775ffdc285d9d9667ebf430ecbdcd8317e86db4bd4841dbe65b38dbc39d8056"},
};

TEST(DhKnownAnswer, PowersInEveryGroup) {
  const BigUint x = *BigUint::from_hex(kKatExponent);
  for (const DhKnownAnswer& kat : kKnownAnswers) {
    const DhParams& params = DhParams::get(kat.group);
    const BigUint y =
        params.prime.sub(BigUint(1)).divmod(BigUint(3))->quotient;
    const std::size_t bits = params.prime.bit_length();

    // The kernels DhKeyPair uses (g = 2 doubling ladder, windowed pow)...
    EXPECT_EQ(params.mont.pow2(x).to_hex(), kat.two_pow_x) << bits;
    EXPECT_EQ(params.mont.pow(y, x).to_hex(), kat.y_pow_x) << bits;
    // ...and the general entry point.
    EXPECT_EQ(params.generator.pow_mod(x, params.prime)->to_hex(),
              kat.two_pow_x)
        << bits;
    EXPECT_EQ(y.pow_mod(x, params.prime)->to_hex(), kat.y_pow_x) << bits;
  }
}

TEST(DhKeyPair, PublicValueFixedWidth) {
  auto kp = DhKeyPair::generate(DhGroup::kModp768);
  ASSERT_TRUE(kp.ok());
  EXPECT_EQ(kp->public_value().size(), 96u);
}

TEST(DhKeyPair, SharedSecretAgrees) {
  auto alice = DhKeyPair::generate(DhGroup::kModp768);
  auto bob = DhKeyPair::generate(DhGroup::kModp768);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  auto key_a = alice->session_key(util::ByteSpan(
      bob->public_value().data(), bob->public_value().size()));
  auto key_b = bob->session_key(util::ByteSpan(
      alice->public_value().data(), alice->public_value().size()));
  ASSERT_TRUE(key_a.ok());
  ASSERT_TRUE(key_b.ok());
  EXPECT_EQ(util::to_hex(util::ByteSpan(key_a->data(), key_a->size())),
            util::to_hex(util::ByteSpan(key_b->data(), key_b->size())));
}

TEST(DhKeyPair, DistinctPairsDistinctKeys) {
  auto alice = DhKeyPair::generate(DhGroup::kModp768);
  auto bob = DhKeyPair::generate(DhGroup::kModp768);
  auto eve = DhKeyPair::generate(DhGroup::kModp768);
  ASSERT_TRUE(alice.ok() && bob.ok() && eve.ok());

  auto key_ab = alice->session_key(util::ByteSpan(
      bob->public_value().data(), bob->public_value().size()));
  auto key_ae = alice->session_key(util::ByteSpan(
      eve->public_value().data(), eve->public_value().size()));
  ASSERT_TRUE(key_ab.ok() && key_ae.ok());
  EXPECT_NE(util::to_hex(util::ByteSpan(key_ab->data(), key_ab->size())),
            util::to_hex(util::ByteSpan(key_ae->data(), key_ae->size())));
}

TEST(DhKeyPair, FreshKeysEachGeneration) {
  auto a = DhKeyPair::generate(DhGroup::kModp768);
  auto b = DhKeyPair::generate(DhGroup::kModp768);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(util::to_hex(util::ByteSpan(a->public_value().data(),
                                        a->public_value().size())),
            util::to_hex(util::ByteSpan(b->public_value().data(),
                                        b->public_value().size())));
}

TEST(DhKeyPair, RejectsDegeneratePublicValues) {
  auto kp = DhKeyPair::generate(DhGroup::kModp768);
  ASSERT_TRUE(kp.ok());
  const DhParams& params = DhParams::get(DhGroup::kModp768);

  // zero
  util::Bytes zero(params.key_bytes, 0);
  EXPECT_FALSE(kp->session_key(util::ByteSpan(zero.data(), zero.size())).ok());

  // one
  util::Bytes one(params.key_bytes, 0);
  one.back() = 1;
  EXPECT_FALSE(kp->session_key(util::ByteSpan(one.data(), one.size())).ok());

  // p - 1 (order-2 subgroup)
  const util::Bytes p_minus_1 =
      params.prime.sub(crypto::BigUint(1)).to_bytes(params.key_bytes);
  EXPECT_FALSE(
      kp->session_key(util::ByteSpan(p_minus_1.data(), p_minus_1.size())).ok());

  // >= p
  const util::Bytes p_bytes = params.prime.to_bytes(params.key_bytes);
  EXPECT_FALSE(
      kp->session_key(util::ByteSpan(p_bytes.data(), p_bytes.size())).ok());
}

TEST(DhKeyPair, LargerGroupAlsoAgrees) {
  auto alice = DhKeyPair::generate(DhGroup::kModp1536);
  auto bob = DhKeyPair::generate(DhGroup::kModp1536);
  ASSERT_TRUE(alice.ok() && bob.ok());
  auto key_a = alice->session_key(util::ByteSpan(
      bob->public_value().data(), bob->public_value().size()));
  auto key_b = bob->session_key(util::ByteSpan(
      alice->public_value().data(), alice->public_value().size()));
  ASSERT_TRUE(key_a.ok() && key_b.ok());
  EXPECT_EQ(util::to_hex(util::ByteSpan(key_a->data(), key_a->size())),
            util::to_hex(util::ByteSpan(key_b->data(), key_b->size())));
}

}  // namespace
}  // namespace naplet::crypto
