#include "util/bigint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace opcqa {
namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_negative());
  EXPECT_EQ(zero.ToString(), "0");
  EXPECT_EQ(zero.ToInt64(), 0);
}

TEST(BigIntTest, FromInt64RoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{42},
                    int64_t{-42}, int64_t{1} << 40, -(int64_t{1} << 40),
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    BigInt b(v);
    EXPECT_TRUE(b.FitsInt64()) << v;
    EXPECT_EQ(b.ToInt64(), v);
  }
}

TEST(BigIntTest, FromUint64) {
  BigInt b(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(b.ToString(), "18446744073709551615");
  EXPECT_FALSE(b.FitsInt64());
}

TEST(BigIntTest, FromStringParsesSignedDecimals) {
  EXPECT_EQ(BigInt::FromString("0")->ToInt64(), 0);
  EXPECT_EQ(BigInt::FromString("-12345")->ToInt64(), -12345);
  EXPECT_EQ(BigInt::FromString("+7")->ToInt64(), 7);
  EXPECT_EQ(BigInt::FromString("123456789012345678901234567890")->ToString(),
            "123456789012345678901234567890");
}

TEST(BigIntTest, FromStringRejectsGarbage) {
  EXPECT_FALSE(BigInt::FromString("").ok());
  EXPECT_FALSE(BigInt::FromString("-").ok());
  EXPECT_FALSE(BigInt::FromString("12a3").ok());
  EXPECT_FALSE(BigInt::FromString("1.5").ok());
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt a = BigInt(std::numeric_limits<uint64_t>::max());
  BigInt one(int64_t{1});
  EXPECT_EQ((a + one).ToString(), "18446744073709551616");
}

TEST(BigIntTest, SubtractionAndSigns) {
  BigInt a(int64_t{100});
  BigInt b(int64_t{250});
  EXPECT_EQ((a - b).ToInt64(), -150);
  EXPECT_EQ((b - a).ToInt64(), 150);
  EXPECT_EQ((a - a).ToInt64(), 0);
  EXPECT_FALSE((a - a).is_negative());
}

TEST(BigIntTest, MixedSignAddition) {
  EXPECT_EQ((BigInt(-5) + BigInt(3)).ToInt64(), -2);
  EXPECT_EQ((BigInt(5) + BigInt(-3)).ToInt64(), 2);
  EXPECT_EQ((BigInt(-5) + BigInt(-3)).ToInt64(), -8);
  EXPECT_EQ((BigInt(-5) + BigInt(5)).ToInt64(), 0);
}

TEST(BigIntTest, MultiplicationSchoolbook) {
  BigInt a = *BigInt::FromString("123456789123456789");
  BigInt b = *BigInt::FromString("987654321987654321");
  EXPECT_EQ((a * b).ToString(), "121932631356500531347203169112635269");
}

TEST(BigIntTest, MultiplicationSigns) {
  EXPECT_EQ((BigInt(-3) * BigInt(4)).ToInt64(), -12);
  EXPECT_EQ((BigInt(-3) * BigInt(-4)).ToInt64(), 12);
  EXPECT_EQ((BigInt(0) * BigInt(-4)).ToInt64(), 0);
  EXPECT_FALSE((BigInt(0) * BigInt(-4)).is_negative());
}

TEST(BigIntTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).ToInt64(), 3);
  EXPECT_EQ((BigInt(-7) / BigInt(2)).ToInt64(), -3);
  EXPECT_EQ((BigInt(7) / BigInt(-2)).ToInt64(), -3);
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).ToInt64(), 3);
}

TEST(BigIntTest, RemainderFollowsDividendSign) {
  EXPECT_EQ((BigInt(7) % BigInt(2)).ToInt64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(2)).ToInt64(), -1);
  EXPECT_EQ((BigInt(7) % BigInt(-2)).ToInt64(), 1);
}

TEST(BigIntTest, LargeDivMod) {
  BigInt a = *BigInt::FromString("121932631356500531347203169112635269");
  BigInt b = *BigInt::FromString("123456789123456789");
  BigInt q, r;
  BigInt::DivMod(a, b, &q, &r);
  EXPECT_EQ(q.ToString(), "987654321987654321");
  EXPECT_TRUE(r.is_zero());
  // Non-exact division: a+1.
  BigInt::DivMod(a + BigInt(1), b, &q, &r);
  EXPECT_EQ(q.ToString(), "987654321987654321");
  EXPECT_EQ(r.ToInt64(), 1);
}

TEST(BigIntTest, DivModInvariantQuotientTimesDivisorPlusRemainder) {
  // Property: a == q*b + r with |r| < |b|, across sign combinations.
  for (int64_t av : {12345, -12345}) {
    for (int64_t bv : {7, -7, 123, -123}) {
      BigInt a(av), b(bv), q, r;
      BigInt::DivMod(a, b, &q, &r);
      EXPECT_EQ(q * b + r, a) << av << "/" << bv;
      EXPECT_LT(r.Abs(), b.Abs());
    }
  }
}

TEST(BigIntTest, GcdBasics) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)).ToInt64(), 6);
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)).ToInt64(), 6);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToInt64(), 5);
  EXPECT_EQ(BigInt::Gcd(BigInt(5), BigInt(0)).ToInt64(), 5);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(0)).ToInt64(), 0);
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)).ToInt64(), 1);
}

TEST(BigIntTest, PowSmallExponents) {
  EXPECT_EQ(BigInt(2).Pow(10).ToInt64(), 1024);
  EXPECT_EQ(BigInt(10).Pow(0).ToInt64(), 1);
  EXPECT_EQ(BigInt(3).Pow(40).ToString(), "12157665459056928801");
  EXPECT_EQ(BigInt(-2).Pow(3).ToInt64(), -8);
}

TEST(BigIntTest, CompareTotalOrder) {
  BigInt values[] = {BigInt(-100), BigInt(-1), BigInt(0), BigInt(1),
                     *BigInt::FromString("99999999999999999999")};
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(values[i] < values[j], i < j);
      EXPECT_EQ(values[i] == values[j], i == j);
    }
  }
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(0).BitLength(), 0u);
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  EXPECT_EQ(BigInt(2).Pow(100).BitLength(), 101u);
}

TEST(BigIntTest, ToDoubleApproximation) {
  EXPECT_DOUBLE_EQ(BigInt(0).ToDouble(), 0.0);
  EXPECT_DOUBLE_EQ(BigInt(12345).ToDouble(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).ToDouble(), -12345.0);
  double big = BigInt(2).Pow(100).ToDouble();
  EXPECT_NEAR(big, std::ldexp(1.0, 100), std::ldexp(1.0, 60));
}

TEST(BigIntTest, HashEqualValuesAgree) {
  BigInt a = *BigInt::FromString("123456789012345678901234567890");
  BigInt b = *BigInt::FromString("123456789012345678901234567890");
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), (-a).Hash());
}

TEST(BigIntTest, ToStringRoundTripProperty) {
  // Property: FromString(ToString(x)) == x for a spread of magnitudes.
  BigInt x(int64_t{1});
  for (int i = 0; i < 30; ++i) {
    x = x * BigInt(123456789) + BigInt(987654321);
    EXPECT_EQ(*BigInt::FromString(x.ToString()), x);
    EXPECT_EQ(*BigInt::FromString((-x).ToString()), -x);
  }
}

// ---------------------------------------------------------------------
// Small-value fast paths: ≤64-bit operands route through native/128-bit
// arithmetic; these cases pin the fast path to the general (big) path at
// the boundaries where the routing decision flips.
// ---------------------------------------------------------------------

TEST(BigIntFastPathTest, TwoLimbTimesTwoLimbMatchesSchoolbook) {
  // Largest two-limb magnitudes: the product needs four limbs.
  BigInt max64(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ((max64 * max64).ToString(),
            "340282366920938463426481119284349108225");
  EXPECT_EQ(((-max64) * max64).ToString(),
            "-340282366920938463426481119284349108225");
  // One limb × two limbs across the carry boundary.
  BigInt limb(uint64_t{0xffffffffu});
  BigInt over(uint64_t{1} << 32);
  EXPECT_EQ((limb * over).ToString(), "18446744069414584320");
  // Fast path × zero.
  EXPECT_TRUE((max64 * BigInt(0)).is_zero());
  // (a*b)/b == a and (a*b)%b == 0 right at the uint64 edge.
  EXPECT_EQ((max64 * limb) / limb, max64);
  EXPECT_TRUE(((max64 * limb) % limb).is_zero());
}

TEST(BigIntFastPathTest, U64DivModAgreesWithWideDivision) {
  BigInt max64(std::numeric_limits<uint64_t>::max());
  BigInt divisor(uint64_t{0x100000001u});  // straddles the limb boundary
  BigInt q, r;
  BigInt::DivMod(max64, divisor, &q, &r);
  EXPECT_EQ(q * divisor + r, max64);
  EXPECT_LT(r, divisor);
  // The same dividend pushed past two limbs exercises the wide path; the
  // two paths must agree on a shared sub-instance.
  BigInt wide = max64 * BigInt(7) + BigInt(3);
  BigInt wq, wr;
  BigInt::DivMod(wide, max64, &wq, &wr);
  EXPECT_EQ(wq, BigInt(7));
  EXPECT_EQ(wr, BigInt(3));
}

TEST(BigIntFastPathTest, GcdNativeAndWideAgree) {
  // Both operands ≤64-bit → fully native Euclid.
  BigInt a(static_cast<uint64_t>(uint64_t{2} * 3 * 5 * 7 * 11 * 1000000007u));
  BigInt b(static_cast<uint64_t>(uint64_t{3} * 7 * 13 * 998244353u));
  EXPECT_EQ(BigInt::Gcd(a, b), BigInt(21));
  EXPECT_EQ(BigInt::Gcd(-a, b), BigInt::Gcd(a, -b));
  EXPECT_EQ(BigInt::Gcd(BigInt(0), b), b);
  // Wide operands contract into the native finish: gcd(2^100·3, 2^90·5)
  // = 2^90.
  BigInt wide_a = BigInt(2).Pow(100) * BigInt(3);
  BigInt wide_b = BigInt(2).Pow(90) * BigInt(5);
  EXPECT_EQ(BigInt::Gcd(wide_a, wide_b), BigInt(2).Pow(90));
}

TEST(BigIntFastPathTest, CompoundAssignmentMutatesInPlace) {
  // Accumulation loop: += over mixed signs, crossing zero and the limb
  // boundary, stays equal to the rebuilt value.
  BigInt acc(0);
  BigInt check(0);
  int64_t deltas[] = {std::numeric_limits<int64_t>::max(), -1, 1,
                      -std::numeric_limits<int64_t>::max(), 42, -100};
  for (int64_t d : deltas) {
    acc += BigInt(d);
    check = check + BigInt(d);
    EXPECT_EQ(acc, check) << d;
  }
  acc -= BigInt(-58);
  EXPECT_EQ(acc, BigInt(0));
  // Multiplicative accumulation through the 64→128-bit boundary.
  BigInt prod(std::numeric_limits<uint64_t>::max());
  prod *= prod;  // self-aliasing
  EXPECT_EQ(prod, BigInt(std::numeric_limits<uint64_t>::max()) *
                      BigInt(std::numeric_limits<uint64_t>::max()));
  prod *= BigInt(-3);
  EXPECT_EQ(prod.ToString(),
            "-1020847100762815390279443357853047324675");
  prod /= BigInt(-3);
  prod %= prod + BigInt(1);
  EXPECT_EQ(prod, BigInt(std::numeric_limits<uint64_t>::max()) *
                      BigInt(std::numeric_limits<uint64_t>::max()));
}

TEST(BigIntFastPathTest, SignSurvivesCarryIntoBit64) {
  // Same-sign magnitudes summing to exactly 2^64 wrap the native uint64
  // to 0; the sign must come from the carry-aware magnitude, not the
  // wrapped low bits.
  BigInt min64(std::numeric_limits<int64_t>::min());
  EXPECT_EQ((min64 + min64).ToString(), "-18446744073709551616");
  EXPECT_EQ((min64 - (-min64)).ToString(), "-18446744073709551616");
  BigInt half(uint64_t{1} << 63);
  EXPECT_EQ((half + half).ToString(), "18446744073709551616");
  EXPECT_EQ(((-half) - half).ToString(), "-18446744073709551616");
}

TEST(BigIntFastPathTest, CompoundSelfAliasing) {
  BigInt x(12345);
  x += x;
  EXPECT_EQ(x, BigInt(24690));
  x -= x;
  EXPECT_TRUE(x.is_zero());
  BigInt y(-7);
  y *= y;
  EXPECT_EQ(y, BigInt(49));
  y /= y;
  EXPECT_EQ(y, BigInt(1));
  y %= y;
  EXPECT_TRUE(y.is_zero());
  // Wide self-aliasing too (schoolbook path).
  BigInt w = BigInt(2).Pow(100);
  w += w;
  EXPECT_EQ(w, BigInt(2).Pow(101));
  w *= w;
  EXPECT_EQ(w, BigInt(2).Pow(202));
}

TEST(BigIntFastPathTest, InPlaceDivisionSigns) {
  BigInt a(-17);
  a /= BigInt(5);
  EXPECT_EQ(a, BigInt(-3));  // truncation toward zero
  BigInt b(-17);
  b %= BigInt(5);
  EXPECT_EQ(b, BigInt(-2));  // remainder keeps the dividend's sign
  BigInt c(17);
  c /= BigInt(-5);
  EXPECT_EQ(c, BigInt(-3));
  BigInt d(15);
  d /= BigInt(-5);
  EXPECT_EQ(d, BigInt(-3));
  BigInt e(4);
  e /= BigInt(-5);
  EXPECT_TRUE(e.is_zero());
  EXPECT_FALSE(e.is_negative());  // no negative zero
}

TEST(BigIntTest, MantissaStaysBelowOneJustUnderPowersOfTwo) {
  // Rounding the top 64 bits to a double carries 2^64 − 1 up to 2^64; the
  // mantissa is renormalized to 0.5 with the exponent one higher.
  BigInt max64(std::numeric_limits<uint64_t>::max());
  const struct {
    BigInt value;
    int64_t exponent;
  } kCases[] = {{max64, 65}, {max64 * max64, 129}, {-max64, 65}};
  for (const auto& c : kCases) {
    double m;
    int64_t e;
    c.value.ToMantissaExp(&m, &e);
    EXPECT_EQ(std::fabs(m), 0.5) << c.value;
    EXPECT_EQ(e, c.exponent) << c.value;
    double expected = std::ldexp(c.value.is_negative() ? -1.0 : 1.0,
                                 static_cast<int>(c.exponent) - 1);
    EXPECT_EQ(c.value.ToDouble(), expected) << c.value;
  }
  // Values that do not round up keep their mantissa in (0.5, 1).
  double m;
  int64_t e;
  BigInt(uint64_t{0xffffffffu}).ToMantissaExp(&m, &e);
  EXPECT_GT(m, 0.5);
  EXPECT_LT(m, 1.0);
  EXPECT_EQ(e, 32);
}

// ---------------------------------------------------------------------
// Storage: magnitudes of up to four limbs (|v| < 2^128) live inline, larger
// ones on the heap. These cases cross that boundary in both directions and
// exercise copies, moves and aliasing on either side of it.
// ---------------------------------------------------------------------

BigInt TwoPow(uint32_t n) { return BigInt(2).Pow(n); }

TEST(BigIntStorageTest, CrossesTheInlineBoundaryBothWays) {
  BigInt four_limbs = TwoPow(128) - BigInt(1);  // largest inline magnitude
  EXPECT_EQ(four_limbs.BitLength(), 128u);
  BigInt five_limbs = four_limbs + BigInt(1);  // 2^128: first heap value
  EXPECT_EQ(five_limbs.ToString(), "340282366920938463463374607431768211456");
  BigInt wide = four_limbs * BigInt(uint64_t{0x100000000u}) + BigInt(7);
  EXPECT_EQ(wide.BitLength(), 160u);
  // Back below the boundary through / and %, in both operator forms.
  BigInt limb(uint64_t{0x100000000u});
  EXPECT_EQ(wide / limb, four_limbs);
  EXPECT_EQ(wide % limb, BigInt(7));
  BigInt q = wide;
  q /= limb;
  EXPECT_EQ(q, four_limbs);
  BigInt r = wide;
  r %= limb;
  EXPECT_EQ(r, BigInt(7));
  // A heap-sized divisor with an inline-sized remainder.
  BigInt big = TwoPow(200) + BigInt(12345);
  BigInt dq, dr;
  BigInt::DivMod(big, five_limbs, &dq, &dr);
  EXPECT_EQ(dq, TwoPow(72));
  EXPECT_EQ(dr, BigInt(12345));
  // Subtraction shrinking a heap value to one limb, then growing again.
  BigInt shrink = five_limbs;
  shrink -= four_limbs;
  EXPECT_EQ(shrink, BigInt(1));
  shrink += four_limbs;
  EXPECT_EQ(shrink, five_limbs);
  EXPECT_EQ(-(five_limbs) + five_limbs, BigInt(0));
  EXPECT_FALSE((-(five_limbs) + five_limbs).is_negative());
}

TEST(BigIntStorageTest, CopyMoveAndSelfAssignment) {
  const BigInt originals[] = {BigInt(-42), TwoPow(127) + BigInt(3),
                              -(TwoPow(300) + BigInt(5))};
  for (const BigInt& original : originals) {
    BigInt copy(original);
    EXPECT_EQ(copy, original);
    BigInt assigned(TwoPow(400));  // heap storage being overwritten
    assigned = original;
    EXPECT_EQ(assigned, original);
    BigInt small(9);  // inline storage being overwritten
    small = original;
    EXPECT_EQ(small, original);
    BigInt& self = copy;
    copy = self;
    EXPECT_EQ(copy, original);
    copy = std::move(self);
    EXPECT_EQ(copy, original);
    BigInt moved(std::move(copy));
    EXPECT_EQ(moved, original);
    EXPECT_TRUE(copy.is_zero());  // NOLINT(bugprone-use-after-move)
    BigInt target(TwoPow(500));
    target = std::move(moved);
    EXPECT_EQ(target, original);
    EXPECT_TRUE(moved.is_zero());  // NOLINT(bugprone-use-after-move)
    // A moved-from value is reusable.
    moved = BigInt(5);
    moved += original;
    EXPECT_EQ(moved, original + BigInt(5));
  }
}

TEST(BigIntStorageTest, CompoundAssignmentAliasing) {
  BigInt max128 = TwoPow(128) - BigInt(1);
  BigInt a = max128;
  a *= a;  // 4 limbs × 4 limbs → 8 limbs
  EXPECT_EQ(a, TwoPow(256) - TwoPow(129) + BigInt(1));
  BigInt b = max128;
  b += b;  // carries out of the inline limbs
  EXPECT_EQ(b, TwoPow(129) - BigInt(2));
  b -= b;
  EXPECT_TRUE(b.is_zero());
  EXPECT_FALSE(b.is_negative());
  BigInt c = -a;
  c += c;
  EXPECT_EQ(c, -(a + a));
  c *= c;
  EXPECT_EQ(c, (a + a) * (a + a));
  c /= c;
  EXPECT_EQ(c, BigInt(1));
  // Gcd of 128-bit operands (inline, native 128-bit remainders).
  BigInt g1 = (TwoPow(64) + BigInt(13)) * BigInt(uint64_t{1000000007});
  BigInt g2 = (TwoPow(64) + BigInt(13)) * BigInt(uint64_t{998244353});
  EXPECT_EQ(BigInt::Gcd(g1, g2), TwoPow(64) + BigInt(13));
  EXPECT_EQ(BigInt::Gcd(max128, max128), max128);
  EXPECT_EQ(BigInt::Gcd(max128, TwoPow(127)), BigInt(1));
  EXPECT_EQ(BigInt::Gcd(-max128, BigInt(3)), BigInt(3));
}

TEST(BigIntStorageTest, HashAndToStringAreStable) {
  // Captured from the previous, vector-backed representation: the storage
  // change must move neither Hash() nor ToString().
  const struct {
    const char* text;
    size_t hash;
  } kTable[] = {
      {"0", 0ull},
      {"1", 11400714819323198486ull},
      {"-1", 14813675350809533518ull},
      {"4294967295", 11400714823618165780ull},
      {"4294967296", 14813675350809533518ull},
      {"-4294967296", 18111443614409783974ull},
      {"18446744073709551615", 14813675573074091021ull},
      {"18446744073709551616", 18111443614409783974ull},
      {"-18446744073709551616", 5217400152002330328ull},
      {"79228162514264337593543950341", 5217400152005376663ull},
      {"340282366920938463463374607431768211455", 5207255597159690096ull},
      {"340282366920938463463374607431768211456", 9379597081598889173ull},
      {"-340282366920938463463374607431768211457", 14675177605321640588ull},
      {"10000000000000000000000000000000000000000", 18338305607311796057ull},
      {"-123456789012345678901234567890123456789012345678901234567890",
       16729817197256672840ull},
  };
  for (const auto& row : kTable) {
    BigInt value = *BigInt::FromString(row.text);
    EXPECT_EQ(value.ToString(), row.text);
    EXPECT_EQ(value.Hash(), row.hash) << row.text;
  }
  BigInt max64(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ((max64 * max64).Hash(), 5217396021320413176ull);
}

// Parameterized: arithmetic consistency against int64 for small operands.
class BigIntSmallArithTest
    : public ::testing::TestWithParam<std::pair<int64_t, int64_t>> {};

TEST_P(BigIntSmallArithTest, MatchesNativeArithmetic) {
  auto [a, b] = GetParam();
  EXPECT_EQ((BigInt(a) + BigInt(b)).ToInt64(), a + b);
  EXPECT_EQ((BigInt(a) - BigInt(b)).ToInt64(), a - b);
  EXPECT_EQ((BigInt(a) * BigInt(b)).ToInt64(), a * b);
  if (b != 0) {
    EXPECT_EQ((BigInt(a) / BigInt(b)).ToInt64(), a / b);
    EXPECT_EQ((BigInt(a) % BigInt(b)).ToInt64(), a % b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, BigIntSmallArithTest,
    ::testing::Values(std::pair<int64_t, int64_t>{0, 0},
                      std::pair<int64_t, int64_t>{1, -1},
                      std::pair<int64_t, int64_t>{17, 5},
                      std::pair<int64_t, int64_t>{-17, 5},
                      std::pair<int64_t, int64_t>{17, -5},
                      std::pair<int64_t, int64_t>{-17, -5},
                      std::pair<int64_t, int64_t>{1000000007, 998244353},
                      std::pair<int64_t, int64_t>{-1000000007, 3},
                      std::pair<int64_t, int64_t>{123456, 789},
                      std::pair<int64_t, int64_t>{1, 1000000000}));

}  // namespace
}  // namespace opcqa
