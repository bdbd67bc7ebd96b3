#include "util/number_format.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstring>

#include "util/assert.hpp"

namespace p2p {
namespace {

using u128 = unsigned __int128;

// A normal double is c * 2^q with c = 2^52 | fraction, q = exponent
// field - 1075.
constexpr int kQMin = -1074, kQMax = 971;
constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;

// ------------------------------------------------ decimal logarithms
//
// Fixed-point estimates (Giulietti, section 9); the checks below hold
// each against exact arithmetic over every exponent the search feeds it.

/// floor(q * log10(2)).
constexpr int flog10_pow2(int q) {
  return static_cast<int>((q * std::int64_t{661971961083}) >> 41);
}

/// floor(log10(3/4 * 2^q)).
constexpr int flog10_three_quarters_pow2(int q) {
  return static_cast<int>(
      (q * std::int64_t{661971961083} - std::int64_t{274743187321}) >> 41);
}

/// floor(e * log2(10)).
constexpr int flog2_pow10(int e) {
  return static_cast<int>((e * std::int64_t{913124641741}) >> 38);
}

// Dragonbox (Jeon, 2020) scales the rounding interval by 10^k with
// k = kKappa - floor(log10 2^q), or k = -floor(log10(3/4 2^q)) when the
// lower neighbour is half as far (c = 2^52): the table spans both over
// every normal double.
constexpr int kKappa = 2;
constexpr int kPhiMin = -flog10_three_quarters_pow2(kQMax);
constexpr int kPhiMax = kKappa - flog10_pow2(kQMin);

// ------------------------------------- exact compile-time arithmetic

/// A natural number below 2^(32 * kLimbs); only what the table and its
/// checks need.
template <int kLimbs>
struct Nat {
  std::uint32_t limb[kLimbs] = {};

  static constexpr Nat pow2(int e) {
    Nat n;
    n.limb[e / 32] = std::uint32_t{1} << (e % 32);
    return n;
  }
  constexpr void mul_small(std::uint32_t m) {
    std::uint64_t carry = 0;
    for (std::uint32_t& l : limb) {
      const std::uint64_t x = std::uint64_t{l} * m + carry;
      l = static_cast<std::uint32_t>(x);
      carry = x >> 32;
    }
  }
  constexpr void shl1() {
    for (int i = kLimbs - 1; i > 0; --i) {
      limb[i] = limb[i] << 1 | limb[i - 1] >> 31;
    }
    limb[0] <<= 1;
  }
  /// *this -= o; requires o <= *this.
  constexpr void sub(const Nat& o) {
    std::uint64_t borrow = 0;
    for (int i = 0; i < kLimbs; ++i) {
      const std::uint64_t x = std::uint64_t{limb[i]} - o.limb[i] - borrow;
      limb[i] = static_cast<std::uint32_t>(x);
      borrow = x >> 63;
    }
  }
  constexpr bool less(const Nat& o) const {
    for (int i = kLimbs; i-- > 0;) {
      if (limb[i] != o.limb[i]) return limb[i] < o.limb[i];
    }
    return false;
  }
  constexpr int bit_length() const {
    for (int i = kLimbs; i-- > 0;) {
      if (limb[i] != 0) return i * 32 + std::bit_width(limb[i]);
    }
    return 0;
  }
  /// *this = floor(*this / d).
  constexpr void div_small(std::uint32_t d) {
    std::uint64_t rem = 0;
    for (int i = kLimbs; i-- > 0;) {
      const std::uint64_t x = rem << 32 | limb[i];
      limb[i] = static_cast<std::uint32_t>(x / d);
      rem = x % d;
    }
  }
  /// Whether any of bits 0 to s - 1 is set.
  constexpr bool any_below(int s) const {
    for (int i = 0; i < s / 32; ++i) {
      if (limb[i] != 0) return true;
    }
    const std::uint32_t mask = (std::uint32_t{1} << (s % 32)) - 1;
    return (limb[s / 32] & mask) != 0;
  }
  /// floor(*this / 2^s), which must be below 2^128.
  constexpr u128 shifted_right(int s) const {
    const auto at = [&](int i) { return i < kLimbs ? limb[i] : 0u; };
    const int w = s / 32, b = s % 32;
    u128 r = 0;
    for (int i = 3; i >= 0; --i) r = r << 32 | at(w + i);
    r >>= b;
    if (b != 0) r |= static_cast<u128>(at(w + 4)) << (128 - b);
    return r;
  }
};

/// 10^326 < 2^1152: room for every power of ten the table and the
/// checks build.
using TableNat = Nat<36>;

/// Whether the estimate of floor(log10(m/4 * 2^q)) — flog10_pow2 for
/// m = 4, flog10_three_quarters_pow2 for m = 3 — is exact, and the shift
/// beta the search derives from it stays in [1, 10] ([0, 10] for the
/// shorter interval), for every q where m/4 * 2^q >= 1 (`up`, k >= 0) or
/// where it is below 1 (k < 0). Exact integers throughout: going up, k
/// rises while m * 2^q reaches 4 * 10^(k+1); going down, with a = -q, k
/// is -j for the first j with m * 10^j >= 4 * 2^a.
constexpr bool log10_estimate_exact(bool three_quarters, bool up) {
  const std::uint32_t m = three_quarters ? 3 : 4;
  const auto exact = [&](int q, int k) {
    const int estimate =
        three_quarters ? flog10_three_quarters_pow2(q) : flog10_pow2(q);
    const int beta = q + flog2_pow10(three_quarters ? -k : kKappa - k);
    return estimate == k && beta >= (three_quarters ? 0 : 1) && beta <= 10;
  };
  const int q_one = three_quarters ? 1 : 0;  // first q with m/4 2^q >= 1
  if (up) {
    TableNat value = TableNat::pow2(q_one);  // m * 2^q
    value.mul_small(m);
    TableNat next = TableNat::pow2(2);  // 4 * 10^(k+1)
    next.mul_small(10);
    int k = 0;
    for (int q = q_one; q <= kQMax; ++q, value.shl1()) {
      while (!value.less(next)) {
        next.mul_small(10);
        ++k;
      }
      if (!exact(q, k)) return false;
    }
    return true;
  }
  TableNat power = TableNat::pow2(3 - q_one);  // 4 * 2^a
  TableNat tens = TableNat::pow2(0);           // m * 10^j
  tens.mul_small(10 * m);
  int j = 1;
  for (int q = q_one - 1; q >= kQMin; --q, power.shl1()) {
    while (tens.less(power)) {
      tens.mul_small(10);
      ++j;
    }
    if (!exact(q, -j)) return false;
  }
  return true;
}

/// flog2_pow10 over the table: floor(e log2 10) is bit_length(10^e) - 1
/// for e >= 0 and -bit_length(10^e') for e = -e'.
constexpr bool log2_estimate_exact() {
  TableNat ten = TableNat::pow2(0);
  for (int e = 0; e <= std::max(-kPhiMin, kPhiMax); ++e, ten.mul_small(10)) {
    const int len = ten.bit_length();
    if (e <= kPhiMax && flog2_pow10(e) != len - 1) return false;
    if (e >= 1 && e <= -kPhiMin && flog2_pow10(-e) != -len) return false;
  }
  return true;
}

static_assert(log2_estimate_exact(), "flog2_pow10 is off over the table");
static_assert(log10_estimate_exact(false, true), "flog10_pow2 is off");
static_assert(log10_estimate_exact(false, false), "flog10_pow2 is off");
static_assert(log10_estimate_exact(true, true),
              "flog10_three_quarters_pow2 is off");
static_assert(log10_estimate_exact(true, false),
              "flog10_three_quarters_pow2 is off");

// -------------------------------------------------- the power table

/// phi = hi * 2^64 + lo.
struct PhiEntry {
  std::uint64_t hi, lo;
};
using PhiTable = std::array<PhiEntry, kPhiMax - kPhiMin + 1>;

/// Entry k - kPhiMin holds phi(k) = ceil(10^k * 2^(127 - floor(log2
/// 10^k))): 10^k's 128-bit significand, rounded up unless exact.
constexpr PhiTable make_phi_table() {
  PhiTable table{};
  const auto store = [&](int k, u128 phi) {
    table[static_cast<std::size_t>(k - kPhiMin)] = {
        static_cast<std::uint64_t>(phi >> 64), static_cast<std::uint64_t>(phi)};
  };
  // k >= 0: 10^k is an integer of len bits; its top 128, rounded up.
  TableNat power = TableNat::pow2(0);
  for (int k = 0; k <= kPhiMax; ++k, power.mul_small(10)) {
    const int len = power.bit_length();
    if (len <= 128) {
      store(k, power.shifted_right(0) << (128 - len));
    } else {
      store(k, power.shifted_right(len - 128) + power.any_below(len - 128));
    }
  }
  // k < 0: 2^(127 + len) / 10^m, m = -k and len = bit_length(10^m), is
  // never an integer; its floor is floor(2^n / 10^m) shifted right by
  // n - 127 - len for one n that suits every m, and
  // floor(2^n / 10^m) = floor(floor(2^n / 10^(m-1)) / 10).
  power = TableNat::pow2(0);
  for (int m = 1; m <= -kPhiMin; ++m) power.mul_small(10);
  const int n = 127 + power.bit_length();
  TableNat quotient = TableNat::pow2(n);
  power = TableNat::pow2(0);
  for (int m = 1; m <= -kPhiMin; ++m) {
    power.mul_small(10);
    quotient.div_small(10);
    store(-m, quotient.shifted_right(n - 127 - power.bit_length()) + 1);
  }
  return table;
}

constexpr PhiTable kPhi = make_phi_table();

// ---------------------------------------------------------- digits
//
// Digits are built in registers as ASCII words, eight digits to a word
// with the first in the low byte, and stored whole. Stores may run past
// the number's end, which kMaxNumberChars allows for.

static_assert(std::endian::native == std::endian::little,
              "the digit words are stored least significant byte first");

constexpr std::array<std::uint64_t, 18> kPow10Int = [] {
  std::array<std::uint64_t, 18> p{};
  p[0] = 1;
  for (std::size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * 10;
  return p;
}();

constexpr std::uint64_t kZeros = 0x3030303030303030;  // "00000000"

/// "00" to "99".
constexpr std::array<std::uint16_t, 100> kDigitPairs = [] {
  std::array<std::uint16_t, 100> a{};
  for (int i = 0; i < 100; ++i) {
    a[static_cast<std::size_t>(i)] =
        static_cast<std::uint16_t>(('0' + i / 10) | ('0' + i % 10) << 8);
  }
  return a;
}();

/// Decimal digits of f >= 1.
inline int digit_count(std::uint64_t f) {
  const int t = (std::bit_width(f) * 1233) >> 12;  // log10(f) or one more
  return t + 1 - (f < kPow10Int[static_cast<std::size_t>(t)]);
}

/// The eight digits of x < 10^8, zero-padded: two 4-digit lanes, then
/// four 2-digit lanes, then eight digits, each split by a multiply-shift
/// division.
inline std::uint64_t ascii8(std::uint64_t x) {
  std::uint64_t v = x / 10000 | (x % 10000) << 32;
  std::uint64_t h = (v * 10486) >> 20 & 0x0000007f0000007f;  // lane / 100
  v = h | (v - h * 100) << 16;
  h = (v * 103) >> 10 & 0x000f000f000f000f;  // lane / 10
  v = h | (v - h * 10) << 8;
  return v | kZeros;
}

/// The sixteen digits of x < 10^16, zero-padded, as two words: the
/// first eight in `hi`, the last eight in `lo`.
struct Ascii16 {
  std::uint64_t hi, lo;
};

inline Ascii16 ascii16(std::uint64_t x) {
  const std::uint64_t hi = x / kPow10Int[8], lo = x % kPow10Int[8];
  return {ascii8(hi), ascii8(lo)};
}

/// A decimal's first 17 significant digits, zero-padded, in ASCII: the
/// lead digit, then eight in w1 and eight in w2. n counts the digits up
/// to the last nonzero one; exp10 is the power of ten of the lead digit.
struct Digits {
  std::uint64_t lead, w1, w2;
  int n, exp10;
};

/// 17 less the trailing '0' bytes of w1 and w2.
inline int significant(std::uint64_t w1, std::uint64_t w2) {
  const std::uint64_t z2 = w2 ^ kZeros;
  return 17 - (z2 != 0 ? std::countl_zero(z2) >> 3
                       : 8 + (std::countl_zero(w1 ^ kZeros) >> 3));
}

/// The digits of f * 10^e, f in [1, 10^17).
inline Digits digits_of(std::uint64_t f, int e) {
  const int n = digit_count(f);
  const std::uint64_t full = f * kPow10Int[static_cast<std::size_t>(17 - n)];
  const std::uint64_t lead = full / kPow10Int[16];
  const std::uint64_t rest = full - lead * kPow10Int[16];
  const Ascii16 w = ascii16(rest);
  return {lead | '0', w.hi, w.lo, significant(w.hi, w.lo), e + n - 1};
}

/// Bytes in lanes m..7 of a word.
inline std::uint64_t lanes_from(int m) {
  return m <= 0 ? ~std::uint64_t{0} : m >= 8 ? 0 : ~std::uint64_t{0} << 8 * m;
}

inline void store8(char* p, std::uint64_t word) { std::memcpy(p, &word, 8); }

/// Writes `d` in [charconv.to.chars] notation: fixed unless scientific
/// is strictly shorter, which per fixed layout is a bound on exp10. A
/// fixed form that pads with zeros is taken as the exact digits only
/// when `padding_exact`; otherwise nothing is written and nullptr
/// returned.
inline char* write_digits(char* out, Digits d, bool padding_exact) {
  const int n = d.n;
  const int exp10 = d.exp10;
  const auto lead = static_cast<char>(d.lead);
  if (exp10 >= 0 && exp10 < n - 1) {  // ddd.ddd: always fixed
    if (exp10 == 0) {
      out[0] = lead;
      out[1] = '.';
      store8(out + 2, d.w1);
      store8(out + 10, d.w2);
      return out + n + 1;
    }
    // Digit j lands at j while j <= exp10, else at j + 1.
    const std::uint64_t d0 = d.lead | d.w1 << 8;
    const std::uint64_t d1 = d.w1 >> 56 | d.w2 << 8;
    const std::uint64_t keep0 = ~lanes_from(exp10 + 1);
    const std::uint64_t keep1 = ~lanes_from(exp10 - 7);
    store8(out, (d0 & keep0) | (d0 << 8 & ~keep0));
    store8(out + 8, (d1 & keep1) | ((d1 << 8 | d0 >> 56) & ~keep1));
    out[16] = static_cast<char>(d1 >> 56);
    out[17] = static_cast<char>(d.w2 >> 56);
    out[exp10 + 1] = '.';
    return out + n + 1;
  }
  if (exp10 < 0) {
    if (exp10 >= -3 - (n > 1)) {  // 0.000ddd
      store8(out, 0x3030303030302e30);  // "0.000000"
      out[1 - exp10] = lead;
      store8(out + 2 - exp10, d.w1);
      store8(out + 10 - exp10, d.w2);
      return out + n + 1 - exp10;
    }
  } else if (exp10 <= n + 3 + (n > 1)) {  // ddd000: the 17 digits pad
    if (exp10 >= n && !padding_exact) return nullptr;
    out[0] = lead;
    store8(out + 1, d.w1);
    store8(out + 9, d.w2);
    return out + exp10 + 1;
  }
  // d.ddde+XX
  out[0] = lead;
  out[1] = '.';
  store8(out + 2, d.w1);
  store8(out + 10, d.w2);
  char* p = out + n + (n > 1);
  *p++ = 'e';
  *p++ = exp10 < 0 ? '-' : '+';
  const int x = exp10 < 0 ? -exp10 : exp10;
  if (x >= 100) *p++ = static_cast<char>('0' + x / 100);
  std::memcpy(p, &kDigitPairs[static_cast<std::size_t>(x % 100)], 2);
  return p + 2;
}

// ------------------------------------------------ the digit search
//
// Dragonbox's search for binary64 (Jeon, 2020, kappa = 2): one 128-bit
// multiply finds the interval's upper end z scaled by 10^k; the interval
// holds a multiple of 1000 iff z's remainder modulo 1000 is below the
// scaled width delta, and otherwise the nearest decimal one digit
// longer follows from that remainder. Ties and endpoint inclusion take
// one more multiply's parity, on rare inputs only.

/// A decimal f * 10^e, f below 10^17; f may end in zeros.
struct Decimal {
  std::uint64_t f;
  int e;
};

/// The upper 128 bits of the 192-bit u * phi: its top 64 bits, and
/// whether the 64 below them are zero.
struct MulUpper {
  std::uint64_t integer_part;
  bool is_integer;
};

inline MulUpper mul_upper(std::uint64_t u, const PhiEntry& phi) {
  const u128 r = u128{u} * phi.hi + ((u128{u} * phi.lo) >> 64);
  return {static_cast<std::uint64_t>(r >> 64),
          static_cast<std::uint64_t>(r) == 0};
}

/// From the lower 128 bits of the 192-bit u * phi: the bit beta below
/// the top 64 (the product's units parity once scaled), and whether the
/// fraction below it is zero.
struct MulParity {
  bool parity, is_integer;
};

inline MulParity mul_parity(std::uint64_t u, const PhiEntry& phi, int beta) {
  const u128 low = u128{u} * phi.lo;
  const std::uint64_t high = u * phi.hi + static_cast<std::uint64_t>(low >> 64);
  const auto below = static_cast<std::uint64_t>(low);
  return {((high >> (64 - beta)) & 1) != 0,
          ((high << beta) | (below >> (64 - beta))) == 0};
}

/// The digits of the shortest decimal in the rounding interval of
/// c * 2^q, c > 2^52 or q = kQMin (neighbours equally far), the nearest
/// among those, ties to even. The result is z / 1000 (z the interval's
/// scaled upper end) or that with one more digit, so z / 1000 is
/// converted while the search still decides.
inline Digits nearest_digits(std::uint64_t c, int q) {
  const int minus_k = flog10_pow2(q) - kKappa;
  const PhiEntry& phi = kPhi[static_cast<std::size_t>(-minus_k - kPhiMin)];
  const int beta = q + flog2_pow10(-minus_k);
  const std::uint64_t two_fc = c << 1;
  // Round-half-even reads the interval's ends back as c when c is even.
  const bool closed = (c & 1) == 0;
  const auto delta = static_cast<std::uint32_t>(phi.hi >> (63 - beta));
  const MulUpper z = mul_upper((two_fc | 1) << beta, phi);
  const std::uint64_t upper = z.integer_part / 1000;  // 15 or 16 digits
  auto r = static_cast<std::uint32_t>(z.integer_part - 1000 * upper);

  // upper's digits as "dddddddd" or "0ddddddd", then eight more; w1
  // starts just past the lead, and `tail` fills in behind.
  const std::uint64_t long_upper = upper >= kPow10Int[15];
  const Ascii16 ab = ascii16(upper);
  const std::uint64_t a = ab.hi, b = ab.lo;
  const int skip = 8 * static_cast<int>(2 - long_upper);
  const auto digits = [&](std::uint64_t tail, int n) {
    return Digits{a >> (skip - 8) & 0xff, a >> skip | b << (64 - skip),
                  b >> skip | tail << (64 - skip), n,
                  minus_k + 17 + static_cast<int>(long_upper)};
  };

  // A multiple of 1000 inside the interval: upper, if below z by less
  // than delta. It may end in zeros.
  std::uint64_t f = upper;
  bool shorter = false;
  if (r < delta) {
    if (r == 0 && z.is_integer && !closed) {  // z itself, excluded
      --f;
      r = 1000;
    } else {
      shorter = true;
    }
  } else if (r == delta) {  // compare the fractions of z - delta and x
    const MulParity x = mul_parity(two_fc - 1, phi, beta);
    shorter = x.parity || (x.is_integer && closed);
  }
  if (shorter) {
    const Digits d = digits(kZeros, 0);
    return {d.lead, d.w1, d.w2, significant(d.w1, d.w2), d.exp10};
  }
  // Otherwise the nearest multiple of 100 to the middle y, which r and
  // delta place within one unit; the parity of y settles it. The digit
  // it adds is never 0, as f * 10 would be a multiple of 1000.
  std::uint32_t dist = r - delta / 2 + 50;
  const bool approx_y_parity = ((dist ^ 50) & 1) != 0;
  const bool divisible = dist % 100 == 0;
  std::uint32_t last = dist / 100;
  if (divisible) {
    const MulParity y = mul_parity(two_fc, phi, beta);
    last -= y.parity != approx_y_parity || ((last & 1) != 0 && y.is_integer);
  }
  if (f == upper && last - 1 < 9) [[likely]] {
    return digits(kZeros << 8 | ('0' + last),
                  16 + static_cast<int>(long_upper));
  }
  return digits_of(f * 10 + last, minus_k + kKappa);  // a borrow, rare
}

/// The same for c = 2^52, q > kQMin, whose lower neighbour is half as
/// far: the ends and the middle each take one shift of phi.
inline Decimal shorter_interval_decimal(int q) {
  const int minus_k = flog10_three_quarters_pow2(q);
  const PhiEntry& phi = kPhi[static_cast<std::size_t>(-minus_k - kPhiMin)];
  const int beta = q + flog2_pow10(-minus_k);
  std::uint64_t xi = (phi.hi - (phi.hi >> 54)) >> (11 - beta);
  const std::uint64_t zi = (phi.hi + (phi.hi >> 53)) >> (11 - beta);
  // The (closed) left end is an integer only for q = 2 and 3.
  if (q < 2 || q > 3) ++xi;
  std::uint64_t f = zi / 10;
  if (f * 10 >= xi) return {f, minus_k + 1};
  f = ((phi.hi >> (10 - beta)) + 1) / 2;  // the middle, rounded up
  if ((f & 1) != 0 && q == -77) {
    --f;  // the one exact tie: round to even
  } else if (f < xi) {
    ++f;
  }
  return {f, minus_k};
}

char* std_to_chars(char* out, double value) {
  const auto [end, ec] = std::to_chars(out, out + kMaxNumberChars, value);
  P2P_ASSERT(ec == std::errc());
  return end;
}

}  // namespace

char* format_number_to(char* out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const bool negative = (bits >> 63) != 0;
  const auto field = static_cast<int>(bits >> 52 & 0x7ff);
  const std::uint64_t fraction = bits & (kHidden - 1);
  if (field == 0x7ff) {
    if (fraction != 0) return std::copy_n("nan", 3, out);
    return negative ? std::copy_n("-inf", 4, out) : std::copy_n("inf", 3, out);
  }
  if (field == 0) {
    if (fraction != 0) return std_to_chars(out, value);  // subnormal
    return negative ? std::copy_n("-0", 2, out) : std::copy_n("0", 1, out);
  }
  const int q = field - 1075;
  Digits d;
  if (fraction != 0 || field == 1) [[likely]] {
    d = nearest_digits(kHidden | fraction, q);
  } else {
    const Decimal shortest = shorter_interval_decimal(q);
    d = digits_of(shortest.f, shortest.e);
  }
  out[0] = '-';
  // From 2^53 on (q >= 1) a fixed form's padding zeros would have to be
  // the double's exact digits, which the shortest ones are not.
  char* end = write_digits(out + negative, d, q < 1);
  return end != nullptr ? end : std_to_chars(out, value);
}

char* format_integer_to(char* out, std::uint64_t value) {
  if (value - 1 < kPow10Int[8] - 1) {  // 1 to 10^8 - 1
    // Without a trailing zero the digits are the fixed form, and fixed
    // is never longer than scientific.
    const std::uint64_t w = ascii8(value);
    if (w >> 56 != '0') {
      const int leading = std::countr_zero(w ^ kZeros) >> 3;
      store8(out, w >> 8 * leading);
      return out + 8 - leading;
    }
  }
  if (value >= std::uint64_t{1} << 53) {
    return format_number_to(out, static_cast<double>(value));
  }
  if (value == 0) {
    *out = '0';
    return out + 1;
  }
  return write_digits(out, digits_of(value, 0), true);
}

void format_number_into(std::string& out, double value) {
  char buffer[kMaxNumberChars];
  out.append(buffer, format_number_to(buffer, value));
}

std::string format_number(double value) {
  std::string out;
  format_number_into(out, value);
  return out;
}

}  // namespace p2p
