#include "util/bigint.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <ostream>
#include <vector>

#include "util/logging.h"

namespace opcqa {

namespace {

constexpr uint64_t kBase = uint64_t{1} << 32;

// Magnitude kernels over raw little-endian limb arrays. Inputs are
// normalized. Each kernel reads the input limbs at an index before it
// writes the output limb at that index, so `out` may alias an input
// (MulMag excepted).

size_t NormalizedSize(const uint32_t* limbs, size_t n) {
  while (n > 0 && limbs[n - 1] == 0) --n;
  return n;
}

int CompareMag(const uint32_t* a, size_t an, const uint32_t* b, size_t bn) {
  if (an != bn) return an < bn ? -1 : 1;
  for (size_t i = an; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// out = |a| + |b|; `out` holds max(an, bn) + 1 limbs. Returns the size.
size_t AddMag(const uint32_t* a, size_t an, const uint32_t* b, size_t bn,
              uint32_t* out) {
  size_t n = std::max(an, bn);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry + (i < an ? a[i] : 0u) + (i < bn ? b[i] : 0u);
    out[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry) out[n++] = static_cast<uint32_t>(carry);
  return n;
}

// out = |a| − |b|, requiring |a| >= |b|; `out` holds an limbs. Returns the
// normalized size.
size_t SubMag(const uint32_t* a, size_t an, const uint32_t* b, size_t bn,
              uint32_t* out) {
  int64_t borrow = 0;
  for (size_t i = 0; i < an; ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < bn ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out[i] = static_cast<uint32_t>(diff);
  }
  OPCQA_CHECK_EQ(borrow, 0) << "SubMag requires |a| >= |b|";
  return NormalizedSize(out, an);
}

// out = |a| · |b|; `out` holds an + bn zeroed limbs and aliases neither
// input. Returns the normalized size.
size_t MulMag(const uint32_t* a, size_t an, const uint32_t* b, size_t bn,
              uint32_t* out) {
  for (size_t i = 0; i < an; ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < bn; ++j) {
      uint64_t cur = static_cast<uint64_t>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + bn;
    while (carry) {
      uint64_t cur = out[k] + carry;
      out[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  return NormalizedSize(out, an + bn);
}

}  // namespace

BigInt::BigInt(int64_t value) {
  // Avoid UB on INT64_MIN: negate in unsigned space.
  uint64_t mag = value < 0 ? ~static_cast<uint64_t>(value) + 1
                           : static_cast<uint64_t>(value);
  SetU64(mag);
  negative_ = value < 0;
}

BigInt::BigInt(uint64_t value) { SetU64(value); }

void BigInt::AssignSlow(const BigInt& other) {
  size_ = 0;  // nothing of the old value needs to survive Reserve
  Reserve(other.size_);
  std::copy_n(other.limbs(), other.size_, limbs());
  size_ = other.size_;
  negative_ = other.negative_;
}

void BigInt::Reserve(uint32_t n) {
  if (n <= capacity_) return;
  auto* buffer = new uint32_t[n];
  std::copy_n(limbs(), size_, buffer);
  if (on_heap()) delete[] heap_;
  heap_ = buffer;
  capacity_ = n;
}

uint64_t BigInt::LowU64() const {
  const uint32_t* l = limbs();
  uint64_t value = size_ > 0 ? l[0] : 0;
  if (size_ > 1) value |= static_cast<uint64_t>(l[1]) << 32;
  return value;
}

void BigInt::SetU64(uint64_t value) {
  uint32_t* l = limbs();  // capacity is at least kInlineLimbs
  size_ = 0;
  if (value != 0) l[size_++] = static_cast<uint32_t>(value);
  if (value >> 32) l[size_++] = static_cast<uint32_t>(value >> 32);
}

#if defined(__SIZEOF_INT128__)
unsigned __int128 BigInt::LowU128() const {
  const uint32_t* l = limbs();
  unsigned __int128 value = 0;
  for (size_t i = std::min<size_t>(size_, 4); i-- > 0;) {
    value = (value << 32) | l[i];
  }
  return value;
}

void BigInt::SetU128(unsigned __int128 value) {
  uint32_t* l = limbs();  // capacity is at least kInlineLimbs
  size_ = 0;
  while (value != 0) {
    l[size_++] = static_cast<uint32_t>(value);
    value >>= 32;
  }
}
#endif

Result<BigInt> BigInt::FromString(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty integer literal");
  bool negative = false;
  size_t i = 0;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    i = 1;
  }
  if (i == text.size()) {
    return Status::InvalidArgument("sign without digits in integer literal");
  }
  BigInt value;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("invalid digit in integer literal: " +
                                     std::string(text));
    }
    value = value * BigInt(int64_t{10}) + BigInt(int64_t{c - '0'});
  }
  if (negative) value = -value;
  return value;
}

bool BigInt::FitsInt64() const {
  if (size_ > 2) return false;
  if (size_ < 2) return true;
  uint64_t mag = LowU64();
  return negative_ ? mag <= (uint64_t{1} << 63)
                   : mag < (uint64_t{1} << 63);
}

int64_t BigInt::ToInt64() const {
  OPCQA_CHECK(FitsInt64()) << "BigInt does not fit int64: " << ToString();
  uint64_t mag = LowU64();
  // Negate in unsigned space: -2^63 has no positive int64 counterpart.
  return static_cast<int64_t>(negative_ ? ~mag + 1 : mag);
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  if (!result.is_zero()) result.negative_ = !result.negative_;
  return result;
}

BigInt BigInt::Abs() const {
  BigInt result = *this;
  result.negative_ = false;
  return result;
}

void BigInt::AddInPlace(const BigInt& other, bool other_negative) {
  if (FitsU64() && other.FitsU64()) {
    // Both magnitudes are read before anything is written: alias-safe.
    uint64_t a = LowU64();
    uint64_t b = other.LowU64();
    bool a_negative = negative_;
    if (a_negative == other_negative) {
      uint64_t sum = a + b;
      if (sum < a) {
        // Carry into bit 64: the 65-bit magnitude 2^64 + sum.
        uint32_t* l = limbs();
        l[0] = static_cast<uint32_t>(sum);
        l[1] = static_cast<uint32_t>(sum >> 32);
        l[2] = 1u;
        size_ = 3;
      } else {
        SetU64(sum);
      }
      negative_ = size_ != 0 && a_negative;
    } else if (a >= b) {
      SetU64(a - b);
      negative_ = size_ != 0 && a_negative;
    } else {
      SetU64(b - a);
      negative_ = other_negative;
    }
    return;
  }
  // Limb pointers are taken after Reserve, so `other` may be *this.
  if (negative_ == other_negative) {
    Reserve(std::max(size_, other.size_) + 1);
    size_ = static_cast<uint32_t>(
        AddMag(limbs(), size_, other.limbs(), other.size_, limbs()));
    return;
  }
  int cmp = CompareMag(limbs(), size_, other.limbs(), other.size_);
  if (cmp == 0) {
    size_ = 0;
    negative_ = false;
  } else if (cmp > 0) {
    size_ = static_cast<uint32_t>(
        SubMag(limbs(), size_, other.limbs(), other.size_, limbs()));
  } else {
    // |other| dominates: compute |other| − |this| and take other's sign.
    Reserve(other.size_);
    size_ = static_cast<uint32_t>(
        SubMag(other.limbs(), other.size_, limbs(), size_, limbs()));
    negative_ = other_negative;
  }
}

BigInt BigInt::Sum(const BigInt& a, const BigInt& b, bool b_negative) {
  BigInt result;
  result.Reserve(std::max(a.size_, b.size_) + 1);
  std::copy_n(a.limbs(), a.size_, result.limbs());
  result.size_ = a.size_;
  result.negative_ = a.negative_;
  result.AddInPlace(b, b_negative);
  return result;
}

BigInt BigInt::operator+(const BigInt& other) const {
  return Sum(*this, other, other.negative_);
}

BigInt BigInt::operator-(const BigInt& other) const {
  return Sum(*this, other, !other.negative_);
}

BigInt BigInt::operator*(const BigInt& other) const {
  BigInt result;
#if defined(__SIZEOF_INT128__)
  if (FitsU64() && other.FitsU64()) {
    // ≤64-bit × ≤64-bit: one native 128-bit multiply.
    result.SetU128(static_cast<unsigned __int128>(LowU64()) *
                   other.LowU64());
    result.negative_ = !result.is_zero() && negative_ != other.negative_;
    return result;
  }
#endif
  if (is_zero() || other.is_zero()) return result;
  uint32_t n = size_ + other.size_;
  result.Reserve(n);
  std::fill_n(result.limbs(), n, 0u);
  result.size_ = static_cast<uint32_t>(
      MulMag(limbs(), size_, other.limbs(), other.size_, result.limbs()));
  result.negative_ = negative_ != other.negative_;
  return result;
}

BigInt& BigInt::operator+=(const BigInt& other) {
  AddInPlace(other, other.negative_);
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& other) {
  AddInPlace(other, !other.negative_);
  return *this;
}

BigInt& BigInt::operator*=(const BigInt& other) {
#if defined(__SIZEOF_INT128__)
  if (FitsU64() && other.FitsU64()) {
    unsigned __int128 product =
        static_cast<unsigned __int128>(LowU64()) * other.LowU64();
    bool negative = negative_ != other.negative_;
    SetU128(product);
    negative_ = !is_zero() && negative;
    return *this;
  }
#endif
  // Schoolbook multiplication needs a separate output buffer anyway.
  return *this = *this * other;
}

BigInt& BigInt::operator/=(const BigInt& other) {
  OPCQA_CHECK(!other.is_zero()) << "division by zero";
  if (FitsU64() && other.FitsU64()) {
    uint64_t q = LowU64() / other.LowU64();
    bool negative = q != 0 && negative_ != other.negative_;
    SetU64(q);
    negative_ = negative;
    return *this;
  }
  return *this = *this / other;
}

BigInt& BigInt::operator%=(const BigInt& other) {
  OPCQA_CHECK(!other.is_zero()) << "division by zero";
  if (FitsU64() && other.FitsU64()) {
    uint64_t r = LowU64() % other.LowU64();
    bool negative = r != 0 && negative_;  // remainder keeps dividend's sign
    SetU64(r);
    negative_ = negative;
    return *this;
  }
  return *this = *this % other;
}

void BigInt::DivModMag(const BigInt& a, const BigInt& b, BigInt* q,
                       BigInt* r) {
  const uint32_t* x = a.limbs();
  const uint32_t* y = b.limbs();
  if (CompareMag(x, a.size_, y, b.size_) < 0) {
    r->Reserve(a.size_);
    std::copy_n(x, a.size_, r->limbs());
    r->size_ = a.size_;
    return;
  }
  // Fast paths: both magnitudes fit one native integer.
  if (a.FitsU64() && b.FitsU64()) {
    uint64_t dividend = a.LowU64();
    uint64_t divisor = b.LowU64();
    q->SetU64(dividend / divisor);
    r->SetU64(dividend % divisor);
    return;
  }
#if defined(__SIZEOF_INT128__)
  if (a.FitsU128() && b.FitsU128()) {
    unsigned __int128 dividend = a.LowU128();
    unsigned __int128 divisor = b.LowU128();
    q->SetU128(dividend / divisor);
    r->SetU128(dividend % divisor);
    return;
  }
#endif
  q->Reserve(a.size_);
  uint32_t* quot = q->limbs();
  std::fill_n(quot, a.size_, 0u);
  if (b.size_ == 1) {
    // Single-limb divisor: one pass of 64-by-32 divisions.
    uint64_t divisor = y[0];
    uint64_t rem = 0;
    for (size_t i = a.size_; i-- > 0;) {
      uint64_t cur = (rem << 32) | x[i];
      quot[i] = static_cast<uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    q->size_ = static_cast<uint32_t>(NormalizedSize(quot, a.size_));
    r->SetU64(rem);
    return;
  }
  // General case: shift-and-subtract over the dividend's bits, most
  // significant first. The running remainder stays below 2|b|.
  r->Reserve(b.size_ + 1);
  uint32_t* rem = r->limbs();
  size_t rn = 0;
  for (size_t bit = size_t{a.size_} * 32; bit-- > 0;) {
    // rem = rem * 2 + bit(a, bit)
    uint32_t carry = (x[bit / 32] >> (bit % 32)) & 1u;
    for (size_t i = 0; i < rn; ++i) {
      uint32_t next_carry = rem[i] >> 31;
      rem[i] = (rem[i] << 1) | carry;
      carry = next_carry;
    }
    if (carry) rem[rn++] = carry;
    if (CompareMag(rem, rn, y, b.size_) >= 0) {
      rn = SubMag(rem, rn, y, b.size_, rem);
      quot[bit / 32] |= (1u << (bit % 32));
    }
  }
  q->size_ = static_cast<uint32_t>(NormalizedSize(quot, a.size_));
  r->size_ = static_cast<uint32_t>(rn);
}

void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                    BigInt* remainder) {
  OPCQA_CHECK(!b.is_zero()) << "division by zero";
  BigInt q, r;
  DivModMag(a, b, &q, &r);
  q.negative_ = !q.is_zero() && a.negative_ != b.negative_;
  r.negative_ = !r.is_zero() && a.negative_;
  *quotient = std::move(q);
  *remainder = std::move(r);
}

BigInt BigInt::operator/(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return q;
}

BigInt BigInt::operator%(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return r;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  while (!b.is_zero()) {
    // Euclid contracts operands quickly; once both magnitudes fit uint64
    // (immediately, for Rational::Reduce on small values) finish natively.
    if (a.FitsU64() && b.FitsU64()) {
      a.SetU64(std::gcd(a.LowU64(), b.LowU64()));
      return a;
    }
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::Pow(uint32_t exponent) const {
  BigInt result(int64_t{1});
  BigInt base = *this;
  while (exponent > 0) {
    if (exponent & 1u) result *= base;
    base *= base;
    exponent >>= 1;
  }
  return result;
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = CompareMag(limbs(), size_, other.limbs(), other.size_);
  return negative_ ? -mag : mag;
}

std::string BigInt::ToString() const {
  if (is_zero()) return "0";
  // Repeated division by 10^9.
  std::vector<uint32_t> mag(limbs(), limbs() + size_);
  std::string digits;
  const uint64_t chunk = 1000000000;
  while (!mag.empty()) {
    uint64_t rem = 0;
    for (size_t i = mag.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | mag[i];
      mag[i] = static_cast<uint32_t>(cur / chunk);
      rem = cur % chunk;
    }
    mag.resize(NormalizedSize(mag.data(), mag.size()));
    for (int i = 0; i < 9; ++i) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

size_t BigInt::BitLength() const {
  if (is_zero()) return 0;
  return (size_t{size_} - 1) * 32 +
         static_cast<size_t>(std::bit_width(limbs()[size_ - 1]));
}

void BigInt::ToMantissaExp(double* mantissa, int64_t* exponent) const {
  if (is_zero()) {
    *mantissa = 0.0;
    *exponent = 0;
    return;
  }
  // The top (up to) 64 bits of the magnitude, msb moved to bit 63.
  const uint32_t* l = limbs();
  uint64_t top = 0;
  int taken = 0;
  for (size_t i = size_; i-- > 0 && taken < 64;) {
    top = (top << 32) | l[i];
    taken += 32;
  }
  top <<= std::countl_zero(top);
  double m = static_cast<double>(top) / std::ldexp(1.0, 64);
  int64_t e = static_cast<int64_t>(BitLength());
  // Rounding `top` to 53 bits can carry up to 2^64 (e.g. 2^64 − 1), which
  // would give m == 1; keep m in [0.5, 1). The value m·2^e is unchanged.
  if (m == 1.0) {
    m = 0.5;
    ++e;
  }
  *mantissa = negative_ ? -m : m;
  *exponent = e;
}

double BigInt::ToDouble() const {
  double mantissa;
  int64_t exponent;
  ToMantissaExp(&mantissa, &exponent);
  if (exponent > 2000) {
    return negative_ ? -HUGE_VAL : HUGE_VAL;
  }
  return std::ldexp(mantissa, static_cast<int>(exponent));
}

size_t BigInt::Hash() const {
  size_t h = negative_ ? 0x9e3779b97f4a7c15ULL : 0;
  const uint32_t* l = limbs();
  for (size_t i = 0; i < size_; ++i) {
    h ^= l[i] + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.ToString();
}

}  // namespace opcqa
