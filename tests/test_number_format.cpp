// Differential tests for the shortest round-trip printer
// (util/number_format.hpp): format_number_to must reproduce
// std::to_chars(double) byte for byte on every finite double — digits,
// notation and exponent spelling — and spell the non-finite values
// "inf", "-inf" and "nan". format_integer_to must match the double
// path on every integer.
//
// The long run (DISABLED_, a billion random bit patterns on four
// threads) is not part of the default suite; run it with
//   ./test_number_format --gtest_also_run_disabled_tests
//   --gtest_filter='NumberFormat.DISABLED_*'
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/number_format.hpp"

#ifndef P2P_EXPERIMENTS_DIR
#error "test_number_format needs -DP2P_EXPERIMENTS_DIR=\"...\" (see CMakeLists)"
#endif

namespace p2p {
namespace {

constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;

/// The bytes format_number promises for `v`.
std::string expected(double v) {
  if (std::isnan(v)) return "nan";
  char buffer[64];
  char* end = std::to_chars(buffer, buffer + sizeof buffer, v).ptr;
  return std::string(buffer, end);
}

/// Compares format_number_to with the reference over many values,
/// reporting the first few mismatches by bit pattern. It also checks
/// that nothing is written past kMaxNumberChars.
class Differ {
 public:
  void check(double v) {
    ++checked_;
    char got[kMaxNumberChars + 8];
    std::memset(got, '#', sizeof got);
    const char* end = format_number_to(got, v);
    const std::string want = expected(v);
    const auto length = static_cast<std::size_t>(end - got);
    const bool guard_intact =
        std::all_of(got + kMaxNumberChars, got + sizeof got,
                    [](char c) { return c == '#'; });
    if (length == want.size() && std::memcmp(got, want.data(), length) == 0 &&
        guard_intact) {
      return;
    }
    if (++mismatches_ <= 5) {
      char bits[32];
      std::snprintf(bits, sizeof bits, "%016llx",
                    static_cast<unsigned long long>(
                        std::bit_cast<std::uint64_t>(v)));
      ADD_FAILURE() << "bits 0x" << bits << ": got '"
                    << std::string(got, std::min(length, sizeof got))
                    << "', want '" << want << "'"
                    << (guard_intact ? "" : " (wrote past 24 bytes)");
    }
  }
  void check_both_signs(double v) {
    check(v);
    check(-v);
  }
  std::uint64_t checked() const { return checked_; }
  std::uint64_t mismatches() const { return mismatches_; }

 private:
  std::uint64_t checked_ = 0;
  std::uint64_t mismatches_ = 0;
};

double from_bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }

/// The double nearest to the decimal string `s`.
double parse(const std::string& s) {
  double v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  EXPECT_TRUE(ec == std::errc() && end == s.data() + s.size()) << s;
  return v;
}

TEST(NumberFormat, MatchesToCharsOnRandomBitPatterns) {
  std::mt19937_64 rng(20260923);
  Differ d;
  for (int i = 0; i < 10'000'000; ++i) d.check(from_bits(rng()));
  EXPECT_EQ(d.mismatches(), 0u) << "of " << d.checked();
}

TEST(NumberFormat, SpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(format_number(0.0), "0");
  EXPECT_EQ(format_number(-0.0), "-0");
  EXPECT_EQ(format_number(inf), "inf");
  EXPECT_EQ(format_number(-inf), "-inf");
  EXPECT_EQ(format_number(std::nan("")), "nan");
  EXPECT_EQ(format_number(-std::nan("")), "nan");
  EXPECT_EQ(format_number(from_bits(0x7ff0000000000001)), "nan");  // payload
  EXPECT_EQ(format_number(from_bits(0xfff8000000000123)), "nan");

  Differ d;
  const double min_normal = std::numeric_limits<double>::min();
  const double max_normal = std::numeric_limits<double>::max();
  const double min_subnormal = std::numeric_limits<double>::denorm_min();
  for (const double v :
       {min_normal, std::nextafter(min_normal, 0.0),
        std::nextafter(min_normal, 1.0), max_normal,
        std::nextafter(max_normal, 0.0), min_subnormal, 2 * min_subnormal,
        3 * min_subnormal, from_bits(0x000fffffffffffff)}) {
    d.check_both_signs(v);
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 100'000; ++i) {  // subnormals take the fall-through
    d.check_both_signs(from_bits(rng() & 0x000fffffffffffff));
  }
  EXPECT_EQ(d.mismatches(), 0u);
}

TEST(NumberFormat, EveryPowerOfTwoAndTen) {
  Differ d;
  for (int e = -1074; e <= 1023; ++e) {
    const double v = std::ldexp(1.0, e);
    d.check_both_signs(v);
    d.check_both_signs(std::nextafter(v, 0.0));
    d.check_both_signs(std::nextafter(v, HUGE_VAL));
  }
  for (int e = -323; e <= 308; ++e) {
    const double v = parse("1e" + std::to_string(e));
    d.check_both_signs(v);
    d.check_both_signs(std::nextafter(v, 0.0));
    d.check_both_signs(std::nextafter(v, HUGE_VAL));
  }
  EXPECT_EQ(d.mismatches(), 0u) << "of " << d.checked();
}

// From 2^53 on, a fixed form with padding zeros shows the double's
// exact digits (123456789012345683968, not the shortest digits
// 12345678901234568 padded), which the printer leaves to std::to_chars;
// below 2^53 it pads the shortest digits itself.
TEST(NumberFormat, IntegersAround2To53) {
  EXPECT_EQ(format_number(1.2345678901234568e20), "123456789012345683968");
  EXPECT_EQ(format_number(1e21), "1e+21");
  EXPECT_EQ(format_number(9007199254740992.0), "9007199254740992");
  Differ d;
  for (std::uint64_t i = kTwo53 - 100'000; i <= kTwo53 + 100'000; ++i) {
    d.check_both_signs(static_cast<double>(i));
  }
  std::mt19937_64 rng(53);
  for (int i = 0; i < 200'000; ++i) {  // 2^53 .. 2^75, integers all
    const int shift = static_cast<int>(rng() % 23);
    d.check_both_signs(std::ldexp(static_cast<double>(rng() >> 11), shift));
  }
  for (std::uint64_t k = 1; k < 1000; ++k) {  // k * 10^j, j up to 22
    for (int j = 0; j <= 22; ++j) {
      d.check(parse(std::to_string(k) + "e" + std::to_string(j)));
    }
  }
  EXPECT_EQ(d.mismatches(), 0u) << "of " << d.checked();
}

// Fixed against scientific is decided by length, with ties to fixed:
// walk every significant-digit count against every decimal exponent a
// switch can happen at, and the fast range's ends.
TEST(NumberFormat, NotationBoundariesAndRangeEnds) {
  EXPECT_EQ(format_number(0.001), "0.001");  // tie: 5 = 5
  EXPECT_EQ(format_number(0.0001), "1e-04");
  EXPECT_EQ(format_number(1e5), "1e+05");
  EXPECT_EQ(format_number(1.2e6), "1200000");  // tie: 7 = 7
  EXPECT_EQ(format_number(1.2e7), "1.2e+07");
  EXPECT_EQ(format_number(123456.0), "123456");
  EXPECT_EQ(format_number(1e100), "1e+100");
  EXPECT_EQ(format_number(-2.2250738585072014e-308),
            "-2.2250738585072014e-308");
  Differ d;
  std::mt19937_64 rng(17);
  for (int n = 1; n <= 17; ++n) {
    for (int exp10 = -30; exp10 <= 30; ++exp10) {
      for (int rep = 0; rep < 200; ++rep) {
        std::string digits(static_cast<std::size_t>(n), '0');
        for (char& c : digits) c = static_cast<char>('0' + rng() % 10);
        digits.front() = static_cast<char>('1' + rng() % 9);
        const double v = parse(digits + "e" + std::to_string(exp10 - n + 1));
        d.check_both_signs(v);
        d.check(std::nextafter(v, 0.0));
        d.check(std::nextafter(v, HUGE_VAL));
      }
    }
  }
  for (int e = -1022; e <= 1023; ++e) {  // every exponent field's ends
    d.check(std::ldexp(1.0 + std::ldexp(1.0, -52), e));
    d.check(std::ldexp(2.0 - std::ldexp(1.0, -52), e));
  }
  EXPECT_EQ(d.mismatches(), 0u) << "of " << d.checked();
}

// Doubles whose digit search ends exactly between two candidates (the
// ties-to-even branch): v * 10 = s + 1/2 for c * 2^-2 with c odd, and
// c * 2^-3 with c = 2 (mod 4); and short decimals that sit exactly on
// the boundary between two doubles above 2^53, where the even one owns
// the boundary.
TEST(NumberFormat, HalfwayCases) {
  Differ d;
  std::mt19937_64 rng(1);
  for (int i = 0; i < 200'000; ++i) {
    const std::uint64_t c = (std::uint64_t{1} << 52) | (rng() >> 12);
    d.check(std::ldexp(static_cast<double>(c | 1), -2));
    d.check(std::ldexp(static_cast<double>((c & ~std::uint64_t{3}) | 2), -3));
  }
  for (int s = 2; s <= 8; ++s) {  // ulp 2^s on [2^(52+s), 2^(53+s))
    const std::uint64_t ulp = std::uint64_t{1} << s;
    const std::uint64_t low = std::uint64_t{1} << (52 + s);
    for (int i = 0; i < 20'000; ++i) {
      std::uint64_t x = low + rng() % low;
      x -= x % 10;  // a short decimal, kept when it halves two doubles
      if (x % ulp != ulp / 2) continue;
      d.check(static_cast<double>(x - ulp / 2));
      d.check(static_cast<double>(x + ulp / 2));
    }
  }
  EXPECT_EQ(d.mismatches(), 0u) << "of " << d.checked();
}

TEST(NumberFormat, FormatIntegerMatchesTheDoublePath) {
  std::uint64_t mismatches = 0;
  const auto check = [&](std::uint64_t i) {
    char got[kMaxNumberChars];
    const std::string have(got, format_integer_to(got, i));
    const std::string want = expected(static_cast<double>(i));
    if (have != want && ++mismatches <= 5) {
      ADD_FAILURE() << i << ": got '" << have << "', want '" << want << "'";
    }
  };
  for (std::uint64_t i = 0; i < 1'000'000; ++i) check(i);
  for (std::uint64_t i = 0; i < 10'000'000; i += 10) check(i);
  for (std::uint64_t p = 1; p < kTwo53; p *= 10) {
    for (std::uint64_t k = 1; k < 10'000 && k * p < kTwo53; ++k) {
      check(k * p);
    }
  }
  for (std::uint64_t i = kTwo53 - 1000; i <= kTwo53 + 1000; ++i) check(i);
  check(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(mismatches, 0u);
}

/// Splits `text` into maximal runs outside the CSV/JSON punctuation.
std::vector<std::string_view> tokens(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || std::string_view(",:[]{}\" \t\r\n").find(text[i]) !=
                                std::string_view::npos) {
      if (i > start) out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

// Every number archived under experiments/ was written by this printer
// (or by std::to_chars before it): parsed back, it must re-format to
// the same bytes. The bench summaries also hold counts (cells, repeats,
// peak RSS) printed as integers; a token of digits alone may match
// that spelling instead.
TEST(NumberFormat, EveryArchivedNumberReformatsToItsBytes) {
  std::size_t numbers = 0, files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(P2P_EXPERIMENTS_DIR)) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".csv" && ext != ".json" && ext != ".jsonl") continue;
    ++files;
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    for (const std::string_view token : tokens(text)) {
      if (!(token[0] == '-' || (token[0] >= '0' && token[0] <= '9'))) continue;
      double v = 0;
      const auto [end, ec] =
          std::from_chars(token.data(), token.data() + token.size(), v);
      if (ec != std::errc() || end != token.data() + token.size()) continue;
      ++numbers;
      const std::string formatted = format_number(v);
      const bool count = token.find_first_not_of("0123456789") ==
                         std::string_view::npos;
      if (formatted != token && !count) {
        ADD_FAILURE() << entry.path().filename() << ": '" << token
                      << "' re-formats as '" << formatted << "'";
      }
    }
  }
  EXPECT_GE(files, 10u);
  EXPECT_GT(numbers, 100'000u);
}

TEST(NumberFormat, DISABLED_MatchesToCharsOnABillionBitPatterns) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 250'000'000;
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &mismatches] {
      std::mt19937_64 rng(1'000'003 * static_cast<std::uint64_t>(t + 1));
      std::uint64_t bad = 0;
      char got[kMaxNumberChars], want[64];
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const double v = from_bits(rng());
        if (std::isnan(v)) continue;
        const char* g = format_number_to(got, v);
        const char* w = std::to_chars(want, want + sizeof want, v).ptr;
        bad += g - got != w - want ||
               std::memcmp(got, want, static_cast<std::size_t>(w - want)) != 0;
      }
      mismatches += bad;
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0u)
      << "of " << kThreads * kPerThread << " bit patterns";
}

}  // namespace
}  // namespace p2p
