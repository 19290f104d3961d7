#include "crypto/bignum.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.hpp"

namespace naplet::crypto {
namespace {

BigUint from_hex_ok(const char* s) {
  auto v = BigUint::from_hex(s);
  EXPECT_TRUE(v.ok()) << s;
  return *v;
}

TEST(BigUint, ZeroProperties) {
  BigUint zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_odd());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_hex(), "0");
  EXPECT_TRUE(zero.to_bytes().empty());
  EXPECT_EQ(zero.to_u64(), 0u);
}

TEST(BigUint, FromU64) {
  BigUint v(0x123456789ABCDEF0ULL);
  EXPECT_EQ(v.to_hex(), "123456789abcdef0");
  EXPECT_EQ(v.to_u64(), 0x123456789ABCDEF0ULL);
  EXPECT_EQ(v.bit_length(), 61u);
}

TEST(BigUint, HexRoundTrip) {
  const char* hex = "deadbeefcafebabe0123456789abcdef00ff";
  EXPECT_EQ(from_hex_ok(hex).to_hex(), hex);
}

TEST(BigUint, HexLeadingZerosNormalized) {
  EXPECT_EQ(from_hex_ok("000001").to_hex(), "1");
  EXPECT_EQ(from_hex_ok("0000000000000000").to_hex(), "0");
}

TEST(BigUint, FromHexRejectsBadInput) {
  EXPECT_FALSE(BigUint::from_hex("").ok());
  EXPECT_FALSE(BigUint::from_hex("xyz").ok());
  EXPECT_FALSE(BigUint::from_hex("12 34").ok());
}

TEST(BigUint, BytesRoundTrip) {
  const util::Bytes bytes = {0x01, 0x02, 0x03, 0x04, 0x05};
  BigUint v = BigUint::from_bytes(util::ByteSpan(bytes.data(), bytes.size()));
  EXPECT_EQ(v.to_hex(), "102030405");
  EXPECT_EQ(v.to_bytes(), bytes);
}

TEST(BigUint, ToBytesPadding) {
  BigUint v(0xFF);
  const util::Bytes padded = v.to_bytes(4);
  EXPECT_EQ(padded, (util::Bytes{0, 0, 0, 0xFF}));
}

TEST(BigUint, CompareTotalOrder) {
  BigUint small(5), big(500), huge = from_hex_ok("ffffffffffffffffff");
  EXPECT_LT(small, big);
  EXPECT_LT(big, huge);
  EXPECT_EQ(small.compare(BigUint(5)), 0);
  EXPECT_GT(huge, small);
}

TEST(BigUint, AddWithCarryChains) {
  BigUint a = from_hex_ok("ffffffffffffffff");
  BigUint one(1);
  EXPECT_EQ(a.add(one).to_hex(), "10000000000000000");
  EXPECT_EQ(one.add(a).to_hex(), "10000000000000000");
}

TEST(BigUint, SubWithBorrowChains) {
  BigUint a = from_hex_ok("10000000000000000");
  EXPECT_EQ(a.sub(BigUint(1)).to_hex(), "ffffffffffffffff");
  EXPECT_TRUE(a.sub(a).is_zero());
}

TEST(BigUint, MulBasics) {
  EXPECT_TRUE(BigUint(0).mul(BigUint(12345)).is_zero());
  EXPECT_EQ(BigUint(7).mul(BigUint(6)).to_u64(), 42u);
  BigUint big = from_hex_ok("ffffffffffffffff");
  EXPECT_EQ(big.mul(big).to_hex(), "fffffffffffffffe0000000000000001");
}

TEST(BigUint, ShiftLeftRight) {
  BigUint v(1);
  EXPECT_EQ(v.shift_left(100).bit_length(), 101u);
  EXPECT_EQ(v.shift_left(100).shift_right(100).to_u64(), 1u);
  EXPECT_TRUE(v.shift_right(1).is_zero());
  BigUint x = from_hex_ok("abcdef");
  EXPECT_EQ(x.shift_left(4).to_hex(), "abcdef0");
  EXPECT_EQ(x.shift_right(4).to_hex(), "abcde");
}

TEST(BigUint, DivModSimple) {
  auto dm = BigUint(100).divmod(BigUint(7));
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ(dm->quotient.to_u64(), 14u);
  EXPECT_EQ(dm->remainder.to_u64(), 2u);
}

TEST(BigUint, DivModByZeroRejected) {
  EXPECT_FALSE(BigUint(1).divmod(BigUint()).ok());
  EXPECT_FALSE(BigUint(1).mod(BigUint()).ok());
}

TEST(BigUint, DivModSmallByLarge) {
  auto dm = BigUint(3).divmod(from_hex_ok("ffffffffffffffffffffffff"));
  ASSERT_TRUE(dm.ok());
  EXPECT_TRUE(dm->quotient.is_zero());
  EXPECT_EQ(dm->remainder.to_u64(), 3u);
}

TEST(BigUint, DivModKnuthCornerCase) {
  // Exercises the q_hat correction branch: divisor top limb just below
  // the radix.
  BigUint dividend = from_hex_ok("7fffffff800000010000000000000000");
  BigUint divisor = from_hex_ok("800000008000000200000005");
  auto dm = dividend.divmod(divisor);
  ASSERT_TRUE(dm.ok());
  // Verify the division identity instead of magic constants.
  const BigUint recomposed = dm->quotient.mul(divisor).add(dm->remainder);
  EXPECT_EQ(recomposed.compare(dividend), 0);
  EXPECT_LT(dm->remainder, divisor);
}

// Property: for random a, b != 0:  a == (a/b)*b + (a%b)  and  a%b < b.
class DivisionProperty : public ::testing::TestWithParam<int> {};

TEST_P(DivisionProperty, Identity) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 50; ++iter) {
    util::Bytes a_bytes(1 + rng.next_below(40));
    util::Bytes b_bytes(1 + rng.next_below(20));
    for (auto& byte : a_bytes) byte = static_cast<std::uint8_t>(rng.next_u64());
    for (auto& byte : b_bytes) byte = static_cast<std::uint8_t>(rng.next_u64());
    BigUint a = BigUint::from_bytes(util::ByteSpan(a_bytes.data(), a_bytes.size()));
    BigUint b = BigUint::from_bytes(util::ByteSpan(b_bytes.data(), b_bytes.size()));
    if (b.is_zero()) b = BigUint(1);

    auto dm = a.divmod(b);
    ASSERT_TRUE(dm.ok());
    EXPECT_EQ(dm->quotient.mul(b).add(dm->remainder).compare(a), 0);
    EXPECT_LT(dm->remainder, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DivisionProperty, ::testing::Range(1, 9));

// Property: modular exponentiation laws.
class PowModProperty : public ::testing::TestWithParam<int> {};

TEST_P(PowModProperty, Laws) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  util::Bytes m_bytes(16);
  for (auto& byte : m_bytes) byte = static_cast<std::uint8_t>(rng.next_u64());
  m_bytes[15] |= 1;  // odd modulus
  const BigUint m = BigUint::from_bytes(util::ByteSpan(m_bytes.data(), m_bytes.size()));
  const BigUint g(2 + rng.next_below(1000));

  // g^0 = 1 (mod m), g^1 = g (mod m)
  EXPECT_EQ(g.pow_mod(BigUint(0), m)->to_u64(), 1u);
  EXPECT_EQ(g.pow_mod(BigUint(1), m)->compare(*g.mod(m)), 0);

  // g^(a+b) = g^a * g^b (mod m)
  const BigUint a(rng.next_below(1U << 20));
  const BigUint b(rng.next_below(1U << 20));
  auto lhs = g.pow_mod(a.add(b), m);
  auto rhs = g.pow_mod(a, m)->mul_mod(*g.pow_mod(b, m), m);
  ASSERT_TRUE(lhs.ok());
  ASSERT_TRUE(rhs.ok());
  EXPECT_EQ(lhs->compare(*rhs), 0);

  // (g^a)^b = g^(a*b) (mod m)
  auto nested = g.pow_mod(a, m)->pow_mod(b, m);
  auto direct = g.pow_mod(a.mul(b), m);
  EXPECT_EQ(nested->compare(*direct), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PowModProperty, ::testing::Range(1, 7));

TEST(BigUint, PowModFermatLittleTheorem) {
  // p = 2^31 - 1 is prime: a^(p-1) = 1 mod p for a not divisible by p.
  const BigUint p((1ULL << 31) - 1);
  const BigUint exp((1ULL << 31) - 2);
  for (std::uint64_t a : {2ULL, 3ULL, 65537ULL, 123456789ULL}) {
    auto r = BigUint(a).pow_mod(exp, p);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_u64(), 1u) << a;
  }
}

TEST(BigUint, PowModZeroModulusRejected) {
  EXPECT_FALSE(BigUint(2).pow_mod(BigUint(10), BigUint()).ok());
}

TEST(BigUint, PowModEvenModulusRejected) {
  // Montgomery reduction needs an odd modulus.
  for (std::uint64_t m : {2ULL, 10ULL, 1ULL << 40}) {
    auto r = BigUint(3).pow_mod(BigUint(5), BigUint(m));
    ASSERT_FALSE(r.ok()) << m;
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument) << m;
    EXPECT_FALSE(MontModulus::make(BigUint(m)).ok()) << m;
  }
}

TEST(BigUint, PowModWidthLimit) {
  // 2048 bits (the largest DH group) is the widest modulus accepted.
  const BigUint widest = BigUint(1).shift_left(MontModulus::kMaxBits).sub(
      BigUint(1));
  EXPECT_TRUE(BigUint(3).pow_mod(BigUint(5), widest).ok());
  const BigUint too_wide = widest.add(BigUint(2));  // 2^2048 + 1
  auto r = BigUint(3).pow_mod(BigUint(5), too_wide);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
}

// Reference exponentiation: square-and-multiply over mul_mod (multiply,
// then Knuth division), independent of the Montgomery kernel.
BigUint reference_pow(const BigUint& base, const BigUint& exponent,
                      const BigUint& m) {
  BigUint result = *BigUint(1).mod(m);
  const BigUint b = *base.mod(m);
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    result = *result.mul_mod(result, m);
    if (exponent.bit(i)) result = *result.mul_mod(b, m);
  }
  return result;
}

BigUint random_big(util::Rng& rng, std::size_t bytes) {
  util::Bytes raw(bytes);
  for (auto& byte : raw) byte = static_cast<std::uint8_t>(rng.next_u64());
  return BigUint::from_bytes(util::ByteSpan(raw.data(), raw.size()));
}

// An odd modulus of `limbs` 64-bit limbs, in one of three shapes: the top
// bit set, a short top limb, or the top limbs all ones.
BigUint odd_modulus(util::Rng& rng, std::size_t limbs, int shape) {
  util::Bytes raw(limbs * 8);
  for (auto& byte : raw) byte = static_cast<std::uint8_t>(rng.next_u64());
  switch (shape) {
    case 0: raw.front() |= 0x80; break;
    case 1: raw.front() = 1; break;
    default:
      std::fill_n(raw.begin(), std::min<std::size_t>(raw.size(), 16), 0xFF);
  }
  raw.back() |= 1;
  return BigUint::from_bytes(util::ByteSpan(raw.data(), raw.size()));
}

// Property: pow_mod and MontModulus::pow2 agree with the reference over odd
// moduli of every width from 1 to 32 limbs, including the edge operands.
class MontgomeryCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(MontgomeryCrossCheck, MatchesMulModReference) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (std::size_t limbs = 1; limbs <= MontModulus::kMaxLimbs; ++limbs) {
    for (int shape = 0; shape < 3; ++shape) {
      const BigUint m = odd_modulus(rng, limbs, shape);
      auto mont = MontModulus::make(m);
      ASSERT_TRUE(mont.ok()) << m.to_hex();
      // Full-width exponents where the reference is cheap, else <= 64 bits.
      const std::size_t exp_bytes =
          limbs <= 4 ? limbs * 8 : 1 + rng.next_below(8);
      const BigUint e = random_big(rng, exp_bytes);

      const BigUint below = random_big(rng, limbs * 8);  // usually < m
      const BigUint above = m.add(random_big(rng, limbs * 8 + 8));  // >= m
      const BigUint m_minus_1 = m.sub(BigUint(1));
      const BigUint zero;
      for (const BigUint* base : {&below, &above, &m_minus_1, &m, &zero}) {
        EXPECT_EQ(*base->pow_mod(e, m), reference_pow(*base, e, m))
            << "m=" << m.to_hex() << " base=" << base->to_hex()
            << " e=" << e.to_hex();
      }
      EXPECT_EQ(*below.pow_mod(BigUint(), m), *BigUint(1).mod(m));
      // The g = 2 doubling ladder.
      EXPECT_EQ(mont->pow2(e), reference_pow(BigUint(2), e, m))
          << "m=" << m.to_hex() << " e=" << e.to_hex();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MontgomeryCrossCheck, ::testing::Range(1, 3));

TEST(BigUint, PowModSmallOddModuli) {
  // m = 1 maps everything to 0; m = 3 is the smallest modulus the base 2
  // doubling can overflow; with m = 9 and base 3, or m = 25 and base 5, a
  // Montgomery square's unreduced result equals m exactly and must still be
  // reduced to 0; the all-ones 64-bit limb is the widest one-limb case.
  for (std::uint64_t m : {1ULL, 3ULL, 9ULL, 25ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    const BigUint mod(m);
    auto mont = MontModulus::make(mod);
    ASSERT_TRUE(mont.ok());
    for (std::uint64_t e : {0ULL, 1ULL, 2ULL, 63ULL, 64ULL, 1000003ULL}) {
      EXPECT_EQ(mont->pow2(BigUint(e)),
                reference_pow(BigUint(2), BigUint(e), mod))
          << m << " " << e;
      for (std::uint64_t base : {3ULL, 5ULL}) {
        EXPECT_EQ(*BigUint(base).pow_mod(BigUint(e), mod),
                  reference_pow(BigUint(base), BigUint(e), mod))
            << m << " " << base << " " << e;
      }
    }
  }
}

TEST(BigUint, PowModModulusOne) {
  auto r = BigUint(5).pow_mod(BigUint(3), BigUint(1));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_zero());
}

}  // namespace
}  // namespace naplet::crypto
