// Arbitrary-precision signed integers.
//
// Repair probabilities in the operational CQA framework are exact rationals
// whose numerators/denominators are products of per-state branch counts and
// weights; they overflow 64-bit integers after a few dozen chain levels.
// BigInt provides the magnitude arithmetic Rational is built on.
//
// Representation: sign + little-endian 32-bit limbs, normalized (no
// leading zero limbs; zero has no limbs and positive sign). Magnitudes of
// up to kInlineLimbs = 4 limbs (|v| < 2^128) live inline in the object;
// only larger ones own a heap buffer. Chain-edge probabilities and the
// path masses of typical walks stay below 2^128 (a cold eight-query
// session over the e5 key-violation instances allocates no limbs at all),
// so Rational temporaries on the walk's hot path do not allocate.
// sizeof(BigInt) is pinned at 32 bytes.
//
// Small-value fast paths: operands whose magnitude fits 64 bits (≤ 2
// limbs) — the overwhelmingly common case for chain-edge probabilities and
// the gcd/divmod calls of Rational::Reduce — multiply/divide through
// native 64/128-bit arithmetic and Euclid on uint64; divisions whose
// operands fit 128 bits use native 128-bit division. Compound assignments
// mutate the left operand's limbs in place (reusing its storage) instead
// of rebuilding *this from a temporary.

#ifndef OPCQA_UTIL_BIGINT_H_
#define OPCQA_UTIL_BIGINT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/status.h"

namespace opcqa {

class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  BigInt(const BigInt& other);
  BigInt(BigInt&& other) noexcept;
  BigInt& operator=(const BigInt& other);
  BigInt& operator=(BigInt&& other) noexcept;
  ~BigInt();

  /// From native integers (implicit by design: arithmetic with literals).
  BigInt(int64_t value);   // NOLINT
  BigInt(uint64_t value);  // NOLINT
  BigInt(int value) : BigInt(static_cast<int64_t>(value)) {}  // NOLINT

  /// Parses an optionally signed decimal string, e.g. "-123456789...".
  static Result<BigInt> FromString(std::string_view text);

  bool is_zero() const { return size_ == 0; }
  bool is_negative() const { return negative_; }
  /// True when the value fits in int64_t.
  bool FitsInt64() const;
  /// Value as int64_t; CHECK-fails unless FitsInt64().
  int64_t ToInt64() const;

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  /// Truncated (toward zero) division; CHECK-fails on division by zero.
  BigInt operator/(const BigInt& other) const;
  /// Remainder with the sign of the dividend (C++ semantics).
  BigInt operator%(const BigInt& other) const;

  // In-place: accumulation loops (mass sums, MulMag-free small products)
  // reuse the left operand's limb storage instead of reallocating.
  BigInt& operator+=(const BigInt& other);
  BigInt& operator-=(const BigInt& other);
  BigInt& operator*=(const BigInt& other);
  BigInt& operator/=(const BigInt& other);
  BigInt& operator%=(const BigInt& other);

  /// Computes quotient and remainder in one pass (remainder sign follows
  /// the dividend, matching operator/ and operator%).
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                     BigInt* remainder);

  /// Greatest common divisor (always non-negative; Gcd(0,0) == 0).
  static BigInt Gcd(BigInt a, BigInt b);

  /// this^exponent for small native exponents.
  BigInt Pow(uint32_t exponent) const;

  /// Three-way comparison: negative / zero / positive.
  int Compare(const BigInt& other) const;

  bool operator==(const BigInt& other) const { return Compare(other) == 0; }
  bool operator!=(const BigInt& other) const { return Compare(other) != 0; }
  bool operator<(const BigInt& other) const { return Compare(other) < 0; }
  bool operator<=(const BigInt& other) const { return Compare(other) <= 0; }
  bool operator>(const BigInt& other) const { return Compare(other) > 0; }
  bool operator>=(const BigInt& other) const { return Compare(other) >= 0; }

  /// Decimal representation, e.g. "-123000".
  std::string ToString() const;

  /// Approximate conversion: value ≈ mantissa * 2^exponent with mantissa in
  /// [0.5, 1) (or 0). Safe for values far beyond double range.
  void ToMantissaExp(double* mantissa, int64_t* exponent) const;

  /// Approximate double value (+/-inf on overflow).
  double ToDouble() const;

  /// Number of significant bits of the magnitude (0 for zero).
  size_t BitLength() const;

  /// Stable hash of the value.
  size_t Hash() const;

 private:
  static constexpr uint32_t kInlineLimbs = 4;

  bool on_heap() const { return capacity_ > kInlineLimbs; }
  uint32_t* limbs() { return on_heap() ? heap_ : inline_; }
  const uint32_t* limbs() const { return on_heap() ? heap_ : inline_; }
  bool FitsU64() const { return size_ <= 2; }
  uint64_t LowU64() const;
  // Capacity for at least `n` limbs; keeps the current limbs.
  void Reserve(uint32_t n);
  // Copy assignment for values involving heap storage.
  void AssignSlow(const BigInt& other);
  void SetU64(uint64_t value);
#if defined(__SIZEOF_INT128__)
  bool FitsU128() const { return size_ <= 4; }
  unsigned __int128 LowU128() const;
  void SetU128(unsigned __int128 value);
#endif
  // *this += (other with sign `other_negative`), in place. Alias-safe.
  void AddInPlace(const BigInt& other, bool other_negative);
  // a + (b with sign `b_negative`) into a fresh value.
  static BigInt Sum(const BigInt& a, const BigInt& b, bool b_negative);
  // Magnitude division into fresh q/r (neither may alias a or b).
  static void DivModMag(const BigInt& a, const BigInt& b, BigInt* q,
                        BigInt* r);

  // Storage: inline_ while capacity_ == kInlineLimbs, heap_ (owning,
  // capacity_ limbs) once a magnitude outgrew it. Moves copy the union's
  // bytes whole, which carries either the limbs or the heap pointer.
  union {
    uint32_t inline_[kInlineLimbs] = {};
    uint32_t* heap_;
  };
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineLimbs;
  bool negative_ = false;
};

// The special members are inline: Rational temporaries copy, move and
// destroy BigInts on every walk step, and for inline values each is a few
// word moves.

inline BigInt::BigInt(const BigInt& other)
    : size_(other.size_), negative_(other.negative_) {
  if (other.on_heap()) {
    AssignSlow(other);
  } else {
    std::memcpy(inline_, other.inline_, sizeof(inline_));
  }
}

inline BigInt::BigInt(BigInt&& other) noexcept
    : size_(other.size_),
      capacity_(other.capacity_),
      negative_(other.negative_) {
  std::memcpy(inline_, other.inline_, sizeof(inline_));
  other.size_ = 0;
  other.capacity_ = kInlineLimbs;
  other.negative_ = false;
}

inline BigInt& BigInt::operator=(const BigInt& other) {
  if (this == &other) return *this;
  if (on_heap() || other.on_heap()) {
    AssignSlow(other);
    return *this;
  }
  std::memcpy(inline_, other.inline_, sizeof(inline_));
  size_ = other.size_;
  negative_ = other.negative_;
  return *this;
}

inline BigInt& BigInt::operator=(BigInt&& other) noexcept {
  if (this == &other) return *this;
  if (on_heap()) delete[] heap_;
  std::memcpy(inline_, other.inline_, sizeof(inline_));
  size_ = other.size_;
  capacity_ = other.capacity_;
  negative_ = other.negative_;
  other.size_ = 0;
  other.capacity_ = kInlineLimbs;
  other.negative_ = false;
  return *this;
}

inline BigInt::~BigInt() {
  if (on_heap()) delete[] heap_;
}

// TranspositionTable::EntryBytes (repair/memo.cc) charges stored shares at
// sizeof(MemoOutcome::RepairShare), which embeds two BigInts: a size
// change here would move every memo byte budget and eviction decision.
static_assert(sizeof(BigInt) == 32, "BigInt must stay 32 bytes");

std::ostream& operator<<(std::ostream& os, const BigInt& value);

}  // namespace opcqa

template <>
struct std::hash<opcqa::BigInt> {
  size_t operator()(const opcqa::BigInt& value) const { return value.Hash(); }
};

#endif  // OPCQA_UTIL_BIGINT_H_
