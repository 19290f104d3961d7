// Arbitrary-precision unsigned integers, sized for Diffie–Hellman work
// (768–2048 bit MODP groups). Little-endian 32-bit limbs, normalized so the
// most significant limb is nonzero (zero is the empty limb vector).
//
// Implemented from scratch: schoolbook multiply and Knuth Algorithm D
// division for the general operations, and Montgomery arithmetic for
// modular exponentiation (MontModulus below): fixed-width 64-bit limbs in
// stack arrays sized for 2048 bits, CIOS multiplication, a dedicated
// squaring routine and a fixed 4-bit window. Not constant time (the window
// skips zero digits and the final subtraction is conditional) — acceptable
// for a research reproduction; noted in DESIGN.md.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/status.hpp"

namespace naplet::crypto {

class BigUint {
 public:
  BigUint() = default;
  explicit BigUint(std::uint64_t v);

  /// Parse a (case-insensitive) hex string, most significant digit first.
  static util::StatusOr<BigUint> from_hex(std::string_view hex);
  /// Parse big-endian bytes.
  static BigUint from_bytes(util::ByteSpan data);

  [[nodiscard]] std::string to_hex() const;
  /// Big-endian bytes, no leading zeros (empty for zero). If `min_size` is
  /// nonzero the output is left-padded with zeros to at least that size.
  [[nodiscard]] util::Bytes to_bytes(std::size_t min_size = 0) const;

  [[nodiscard]] bool is_zero() const noexcept { return limbs_.empty(); }
  [[nodiscard]] bool is_odd() const noexcept {
    return !limbs_.empty() && (limbs_[0] & 1);
  }
  /// Number of significant bits (0 for zero).
  [[nodiscard]] std::size_t bit_length() const noexcept;
  [[nodiscard]] bool bit(std::size_t i) const noexcept;

  [[nodiscard]] std::uint64_t to_u64() const noexcept;

  // Comparison: total order.
  [[nodiscard]] int compare(const BigUint& other) const noexcept;
  friend bool operator==(const BigUint& a, const BigUint& b) noexcept {
    return a.compare(b) == 0;
  }
  friend auto operator<=>(const BigUint& a, const BigUint& b) noexcept {
    return a.compare(b) <=> 0;
  }

  [[nodiscard]] BigUint add(const BigUint& other) const;
  /// Requires *this >= other (asserts in debug builds).
  [[nodiscard]] BigUint sub(const BigUint& other) const;
  [[nodiscard]] BigUint mul(const BigUint& other) const;
  [[nodiscard]] BigUint shift_left(std::size_t bits) const;
  [[nodiscard]] BigUint shift_right(std::size_t bits) const;

  struct DivMod;
  /// Division with remainder; error on divide-by-zero.
  [[nodiscard]] util::StatusOr<DivMod> divmod(const BigUint& divisor) const;
  [[nodiscard]] util::StatusOr<BigUint> mod(const BigUint& modulus) const;

  /// (this * other) mod m. Plain multiply-then-divide: the reference the
  /// Montgomery exponentiation is tested against.
  [[nodiscard]] util::StatusOr<BigUint> mul_mod(const BigUint& other,
                                                const BigUint& m) const;
  /// this^exponent mod m. m must be odd and at most MontModulus::kMaxBits
  /// bits (InvalidArgument otherwise). Builds a MontModulus per call; code
  /// that reuses one modulus should keep a MontModulus instead.
  [[nodiscard]] util::StatusOr<BigUint> pow_mod(const BigUint& exponent,
                                                const BigUint& m) const;

 private:
  friend class MontModulus;

  void normalize() noexcept;

  std::vector<std::uint32_t> limbs_;  // little-endian
};

struct BigUint::DivMod {
  BigUint quotient;
  BigUint remainder;
};

/// Montgomery context for one odd modulus m: the limb count n, -m^-1 mod
/// 2^64, and R^2 mod m and R mod m for R = 2^(64n), all computed once here
/// so that no exponentiation repeats a division.
class MontModulus {
 public:
  static constexpr std::size_t kMaxLimbs = 32;  // 64-bit limbs
  static constexpr std::size_t kMaxBits = kMaxLimbs * 64;

  /// InvalidArgument unless m is odd and at most kMaxBits bits.
  static util::StatusOr<MontModulus> make(const BigUint& m);

  /// base^exponent mod m; a base >= m is reduced first.
  [[nodiscard]] BigUint pow(const BigUint& base,
                            const BigUint& exponent) const;
  /// 2^exponent mod m. Multiplying by the base 2 is a modular doubling
  /// (shift plus conditional subtract), so no window table is needed.
  [[nodiscard]] BigUint pow2(const BigUint& exponent) const;

 private:
  using Limbs = std::array<std::uint64_t, kMaxLimbs>;

  MontModulus() = default;

  void load(const BigUint& v, Limbs& out) const noexcept;
  [[nodiscard]] BigUint store(const Limbs& v) const;
  /// r = a * b * R^-1 mod m; r may alias a or b.
  void mul(Limbs& r, const Limbs& a, const Limbs& b) const noexcept;
  /// r = a * a * R^-1 mod m; r may alias a.
  void sqr(Limbs& r, const Limbs& a) const noexcept;
  /// Leaves the Montgomery domain: a * R^-1 mod m.
  [[nodiscard]] BigUint from_mont(const Limbs& a) const;

  BigUint modulus_;
  std::size_t n_ = 0;
  std::uint64_t m_inv_ = 0;  // -m^-1 mod 2^64
  Limbs m_{};
  Limbs r2_{};   // R^2 mod m: maps into the Montgomery domain
  Limbs one_{};  // R mod m: 1 in the Montgomery domain
};

}  // namespace naplet::crypto
