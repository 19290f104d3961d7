#include "crypto/bignum.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace naplet::crypto {

namespace {
constexpr std::uint64_t kBase = 1ULL << 32;

int hex_nibble(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

BigUint::BigUint(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigUint::normalize() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

util::StatusOr<BigUint> BigUint::from_hex(std::string_view hex) {
  if (hex.empty()) return util::InvalidArgument("empty hex string");
  BigUint out;
  // Parse from the least significant end, 8 hex digits per limb.
  std::size_t end = hex.size();
  while (end > 0) {
    const std::size_t begin = end >= 8 ? end - 8 : 0;
    std::uint32_t limb = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const int nib = hex_nibble(hex[i]);
      if (nib < 0) return util::InvalidArgument("non-hex character");
      limb = limb << 4 | static_cast<std::uint32_t>(nib);
    }
    out.limbs_.push_back(limb);
    end = begin;
  }
  out.normalize();
  return out;
}

BigUint BigUint::from_bytes(util::ByteSpan data) {
  BigUint out;
  // data is big-endian; consume from the tail 4 bytes at a time.
  std::size_t end = data.size();
  while (end > 0) {
    const std::size_t begin = end >= 4 ? end - 4 : 0;
    std::uint32_t limb = 0;
    for (std::size_t i = begin; i < end; ++i) {
      limb = limb << 8 | data[i];
    }
    out.limbs_.push_back(limb);
    end = begin;
  }
  out.normalize();
  return out;
}

std::string BigUint::to_hex() const {
  if (limbs_.empty()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(limbs_.size() * 8);
  // Most significant limb without leading zeros.
  std::uint32_t top = limbs_.back();
  bool started = false;
  for (int shift = 28; shift >= 0; shift -= 4) {
    const unsigned nib = (top >> shift) & 0xF;
    if (nib != 0 || started) {
      out.push_back(kDigits[nib]);
      started = true;
    }
  }
  for (std::size_t i = limbs_.size() - 1; i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(kDigits[(limbs_[i] >> shift) & 0xF]);
    }
  }
  return out;
}

util::Bytes BigUint::to_bytes(std::size_t min_size) const {
  util::Bytes out;
  if (!limbs_.empty()) {
    // Most significant limb: skip leading zero bytes.
    std::uint32_t top = limbs_.back();
    bool started = false;
    for (int shift = 24; shift >= 0; shift -= 8) {
      const std::uint8_t b = static_cast<std::uint8_t>(top >> shift);
      if (b != 0 || started) {
        out.push_back(b);
        started = true;
      }
    }
    for (std::size_t i = limbs_.size() - 1; i-- > 0;) {
      for (int shift = 24; shift >= 0; shift -= 8) {
        out.push_back(static_cast<std::uint8_t>(limbs_[i] >> shift));
      }
    }
  }
  if (out.size() < min_size) {
    out.insert(out.begin(), min_size - out.size(), 0);
  }
  return out;
}

std::size_t BigUint::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  std::uint32_t top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUint::bit(std::size_t i) const noexcept {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::uint64_t BigUint::to_u64() const noexcept {
  std::uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

int BigUint::compare(const BigUint& other) const noexcept {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigUint BigUint::add(const BigUint& other) const {
  BigUint out;
  const std::size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.reserve(n + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < other.limbs_.size()) sum += other.limbs_[i];
    out.limbs_.push_back(static_cast<std::uint32_t>(sum));
    carry = sum >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigUint BigUint::sub(const BigUint& other) const {
  assert(compare(other) >= 0 && "BigUint::sub underflow");
  BigUint out;
  out.limbs_.reserve(limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < other.limbs_.size()) diff -= other.limbs_[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_.push_back(static_cast<std::uint32_t>(diff));
  }
  out.normalize();
  return out;
}

BigUint BigUint::mul(const BigUint& other) const {
  if (is_zero() || other.is_zero()) return BigUint();
  BigUint out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t a = limbs_[i];
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      const std::uint64_t cur =
          out.limbs_[i + j] + a * other.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + other.limbs_.size();
    while (carry) {
      const std::uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.normalize();
  return out;
}

BigUint BigUint::shift_left(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.normalize();
  return out;
}

BigUint BigUint::shift_right(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return BigUint();
  const std::size_t bit_shift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.normalize();
  return out;
}

util::StatusOr<BigUint::DivMod> BigUint::divmod(const BigUint& divisor) const {
  if (divisor.is_zero()) return util::InvalidArgument("division by zero");
  if (compare(divisor) < 0) return DivMod{BigUint(), *this};

  // Single-limb divisor: simple short division.
  if (divisor.limbs_.size() == 1) {
    const std::uint64_t d = divisor.limbs_[0];
    BigUint q;
    q.limbs_.assign(limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = rem << 32 | limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.normalize();
    return DivMod{std::move(q), BigUint(rem)};
  }

  // Knuth Algorithm D. Normalize so the divisor's top limb has its high bit
  // set, making quotient-digit estimation accurate to within 2.
  const std::size_t shift = 32 - (divisor.bit_length() % 32 == 0
                                      ? 32
                                      : divisor.bit_length() % 32);
  const BigUint u = shift_left(shift);
  const BigUint v = divisor.shift_left(shift);
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() - n;

  std::vector<std::uint32_t> un(u.limbs_);
  un.push_back(0);  // extra high limb for the algorithm
  const std::vector<std::uint32_t>& vn = v.limbs_;

  BigUint q;
  q.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat from the top two limbs of the current remainder.
    const std::uint64_t numerator =
        (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
    std::uint64_t q_hat = numerator / vn[n - 1];
    std::uint64_t r_hat = numerator % vn[n - 1];

    while (q_hat >= kBase ||
           q_hat * vn[n - 2] > ((r_hat << 32) | un[j + n - 2])) {
      --q_hat;
      r_hat += vn[n - 1];
      if (r_hat >= kBase) break;
    }

    // Multiply-and-subtract q_hat * v from u[j .. j+n].
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t product = q_hat * vn[i] + carry;
      carry = product >> 32;
      std::int64_t diff = static_cast<std::int64_t>(un[i + j]) -
                          static_cast<std::int64_t>(product & 0xFFFFFFFF) -
                          borrow;
      if (diff < 0) {
        diff += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      un[i + j] = static_cast<std::uint32_t>(diff);
    }
    std::int64_t diff = static_cast<std::int64_t>(un[j + n]) -
                        static_cast<std::int64_t>(carry) - borrow;
    if (diff < 0) {
      // q_hat was one too large: add v back and decrement.
      diff += static_cast<std::int64_t>(kBase);
      --q_hat;
      std::uint64_t add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum =
            static_cast<std::uint64_t>(un[i + j]) + vn[i] + add_carry;
        un[i + j] = static_cast<std::uint32_t>(sum);
        add_carry = sum >> 32;
      }
      diff += static_cast<std::int64_t>(add_carry);
    }
    un[j + n] = static_cast<std::uint32_t>(diff);
    q.limbs_[j] = static_cast<std::uint32_t>(q_hat);
  }
  q.normalize();

  BigUint r;
  r.limbs_.assign(un.begin(), un.begin() + static_cast<std::ptrdiff_t>(n));
  r.normalize();
  r = r.shift_right(shift);
  return DivMod{std::move(q), std::move(r)};
}

util::StatusOr<BigUint> BigUint::mod(const BigUint& modulus) const {
  auto dm = divmod(modulus);
  if (!dm.ok()) return dm.status();
  return std::move(dm->remainder);
}

util::StatusOr<BigUint> BigUint::mul_mod(const BigUint& other,
                                         const BigUint& m) const {
  return mul(other).mod(m);
}

util::StatusOr<BigUint> BigUint::pow_mod(const BigUint& exponent,
                                         const BigUint& m) const {
  auto mont = MontModulus::make(m);
  if (!mont.ok()) return mont.status();
  return mont->pow(*this, exponent);
}

// ---------------------------------------------------------------------------
// Montgomery arithmetic. Values in the Montgomery domain are x * R mod m with
// R = 2^(64n); a product there is a * b * R^-1 mod m, which costs two n x n
// limb products and no division.

util::StatusOr<MontModulus> MontModulus::make(const BigUint& m) {
  if (!m.is_odd()) {
    return util::InvalidArgument("Montgomery modulus must be odd");
  }
  if (m.bit_length() > kMaxBits) {
    return util::InvalidArgument("Montgomery modulus wider than " +
                                 std::to_string(kMaxBits) + " bits");
  }
  MontModulus ctx;
  ctx.modulus_ = m;
  ctx.n_ = (m.bit_length() + 63) / 64;
  ctx.load(m, ctx.m_);

  // Newton's iteration for m[0]^-1 mod 2^64: an odd m0 is its own inverse
  // mod 8 (3 correct bits), and each step doubles the correct bits.
  std::uint64_t inv = ctx.m_[0];
  for (int i = 0; i < 5; ++i) inv *= 2 - ctx.m_[0] * inv;
  ctx.m_inv_ = 0 - inv;

  auto r2 = BigUint(1).shift_left(128 * ctx.n_).mod(m);
  if (!r2.ok()) return r2.status();
  ctx.load(*r2, ctx.r2_);
  Limbs unit{};
  unit[0] = 1;
  ctx.mul(ctx.one_, ctx.r2_, unit);  // R^2 * R^-1 = R mod m
  return ctx;
}

void MontModulus::load(const BigUint& v, Limbs& out) const noexcept {
  assert(v.limbs_.size() <= 2 * n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const std::uint64_t lo = 2 * k < v.limbs_.size() ? v.limbs_[2 * k] : 0;
    const std::uint64_t hi =
        2 * k + 1 < v.limbs_.size() ? v.limbs_[2 * k + 1] : 0;
    out[k] = hi << 32 | lo;
  }
}

BigUint MontModulus::store(const Limbs& v) const {
  BigUint out;
  out.limbs_.resize(2 * n_);
  for (std::size_t k = 0; k < n_; ++k) {
    out.limbs_[2 * k] = static_cast<std::uint32_t>(v[k]);
    out.limbs_[2 * k + 1] = static_cast<std::uint32_t>(v[k] >> 32);
  }
  out.normalize();
  return out;
}

namespace {

__extension__ using u128 = unsigned __int128;  // GCC/Clang 128-bit product

std::uint64_t lo64(u128 v) noexcept { return static_cast<std::uint64_t>(v); }
std::uint64_t hi64(u128 v) noexcept {
  return static_cast<std::uint64_t>(v >> 64);
}

// r = t - m if top:t >= m, else t; t < 2m. r may be t itself.
void reduce_once(std::uint64_t* r, const std::uint64_t* t, std::uint64_t top,
                 const std::uint64_t* m, std::size_t n) noexcept {
  bool subtract = top != 0;
  if (!subtract) {
    subtract = true;  // t == m also subtracts
    for (std::size_t k = n; k-- > 0;) {
      if (t[k] != m[k]) {
        subtract = t[k] > m[k];
        break;
      }
    }
  }
  if (!subtract) {
    if (r != t) std::copy_n(t, n, r);
    return;
  }
  std::uint64_t borrow = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const u128 d = static_cast<u128>(t[k]) - m[k] - borrow;
    r[k] = lo64(d);
    borrow = hi64(d) & 1;
  }
}

}  // namespace

void MontModulus::mul(Limbs& r, const Limbs& a,
                      const Limbs& b) const noexcept {
  // CIOS with the multiply and reduce passes fused: per limb of b,
  // t = (t + a * b[i] + u * m) / 2^64 with u chosen to zero the low limb.
  // t stays below 2m, so it fits n limbs plus one carry limb t[n].
  const std::size_t n = n_;
  std::uint64_t t[kMaxLimbs + 1] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bi = b[i];
    u128 p = static_cast<u128>(a[0]) * bi + t[0];
    const std::uint64_t u = lo64(p) * m_inv_;
    u128 q = static_cast<u128>(u) * m_[0] + lo64(p);
    std::uint64_t carry_p = hi64(p);
    std::uint64_t carry_q = hi64(q);
    for (std::size_t j = 1; j < n; ++j) {
      p = static_cast<u128>(a[j]) * bi + t[j] + carry_p;
      carry_p = hi64(p);
      q = static_cast<u128>(u) * m_[j] + lo64(p) + carry_q;
      carry_q = hi64(q);
      t[j - 1] = lo64(q);
    }
    const u128 s = static_cast<u128>(t[n]) + carry_p + carry_q;
    t[n - 1] = lo64(s);
    t[n] = hi64(s);
  }
  reduce_once(r.data(), t, t[n], m_.data(), n);
}

void MontModulus::sqr(Limbs& r, const Limbs& a) const noexcept {
  const std::size_t n = n_;
  std::uint64_t t[2 * kMaxLimbs] = {};

  // Each cross product a[i] * a[j] (i < j) once...
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const u128 p = static_cast<u128>(a[i]) * a[j] + t[i + j] + carry;
      t[i + j] = lo64(p);
      carry = hi64(p);
    }
    t[i + n] = carry;
  }
  // ...doubled (the sum is below R^2 / 2, so no bit is shifted out)...
  std::uint64_t carry = 0;
  for (std::size_t k = 0; k < 2 * n; ++k) {
    const std::uint64_t v = t[k];
    t[k] = v << 1 | carry;
    carry = v >> 63;
  }
  // ...plus the squares a[i]^2 on the diagonal.
  carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 p = static_cast<u128>(a[i]) * a[i];
    u128 s = static_cast<u128>(t[2 * i]) + lo64(p) + carry;
    t[2 * i] = lo64(s);
    s = static_cast<u128>(t[2 * i + 1]) + hi64(p) + hi64(s);
    t[2 * i + 1] = lo64(s);
    carry = hi64(s);
  }

  // Montgomery reduction of the 2n-limb square: add u * m * 2^(64i) to
  // zero limb i, for each of the low n limbs. `top` carries into limb
  // i + n + 1, which the next round adds in.
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t u = t[i] * m_inv_;
    carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 p = static_cast<u128>(u) * m_[j] + t[i + j] + carry;
      t[i + j] = lo64(p);
      carry = hi64(p);
    }
    const u128 s = static_cast<u128>(t[i + n]) + carry + top;
    t[i + n] = lo64(s);
    top = hi64(s);
  }
  reduce_once(r.data(), t + n, top, m_.data(), n);
}

BigUint MontModulus::from_mont(const Limbs& a) const {
  Limbs unit{};
  unit[0] = 1;
  Limbs out{};
  mul(out, a, unit);
  return store(out);
}

BigUint MontModulus::pow(const BigUint& base, const BigUint& exponent) const {
  constexpr std::size_t kWindow = 4;
  Limbs b{};
  if (base >= modulus_) {
    load(*base.mod(modulus_), b);
  } else {
    load(base, b);
  }

  // table[d] = base^d in the Montgomery domain, for every 4-bit digit d.
  std::array<Limbs, std::size_t{1} << kWindow> table{};
  table[0] = one_;
  mul(table[1], b, r2_);
  for (std::size_t d = 2; d < table.size(); ++d) {
    mul(table[d], table[d - 1], table[1]);
  }

  // Left to right over fixed 4-bit digits of the exponent.
  Limbs acc = one_;
  bool first = true;
  for (std::size_t w = (exponent.bit_length() + kWindow - 1) / kWindow;
       w-- > 0;) {
    std::size_t digit = 0;
    for (std::size_t k = kWindow; k-- > 0;) {
      digit = digit << 1 | (exponent.bit(w * kWindow + k) ? 1 : 0);
    }
    if (first) {
      acc = table[digit];
      first = false;
      continue;
    }
    for (std::size_t k = 0; k < kWindow; ++k) sqr(acc, acc);
    if (digit != 0) mul(acc, acc, table[digit]);
  }
  return from_mont(acc);
}

BigUint MontModulus::pow2(const BigUint& exponent) const {
  const std::size_t n = n_;
  Limbs acc = one_;
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    sqr(acc, acc);
    if (!exponent.bit(i)) continue;
    // acc = 2 * acc mod m: shift one bit, subtract m if it overflowed m.
    std::uint64_t carry = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t v = acc[k];
      acc[k] = v << 1 | carry;
      carry = v >> 63;
    }
    reduce_once(acc.data(), acc.data(), carry, m_.data(), n);
  }
  return from_mont(acc);
}

}  // namespace naplet::crypto
