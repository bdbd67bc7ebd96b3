// Command-line flag parser used by the example drivers.
#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace p2p {
namespace {

Flags make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()),
               const_cast<char**>(args.data()));
}

TEST(Flags, EqualsSyntax) {
  Flags f = make({"--k=5", "--rate=2.5", "--name=abc"});
  EXPECT_EQ(f.get_int("k", 1, ""), 5);
  EXPECT_NEAR(f.get_double("rate", 0.0, ""), 2.5, 1e-12);
  EXPECT_EQ(f.get_string("name", "", ""), "abc");
  f.finish();
}

TEST(Flags, SpaceSyntax) {
  Flags f = make({"--k", "7", "--rate", "0.25"});
  EXPECT_EQ(f.get_int("k", 1, ""), 7);
  EXPECT_NEAR(f.get_double("rate", 0.0, ""), 0.25, 1e-12);
  f.finish();
}

TEST(Flags, DefaultsWhenAbsent) {
  Flags f = make({});
  EXPECT_EQ(f.get_int("k", 42, ""), 42);
  EXPECT_EQ(f.get_string("policy", "random-useful", ""), "random-useful");
  EXPECT_FALSE(f.get_bool("verbose", false, ""));
  f.finish();
}

TEST(Flags, BareBooleanIsTrue) {
  Flags f = make({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false, ""));
  f.finish();
}

TEST(Flags, BooleanFalseSpellings) {
  Flags f = make({"--a=false", "--b=0", "--c=yes"});
  EXPECT_FALSE(f.get_bool("a", true, ""));
  EXPECT_FALSE(f.get_bool("b", true, ""));
  EXPECT_TRUE(f.get_bool("c", false, ""));
  f.finish();
}

TEST(Flags, NegativeValueSpaceSyntax) {
  // Regression: "-1.5" must parse as the value of --name, not as a flag.
  Flags f = make({"--name", "-1.5"});
  EXPECT_NEAR(f.get_double("name", 0.0, ""), -1.5, 1e-12);
  f.finish();
}

TEST(Flags, NegativeValueEqualsSyntax) {
  Flags f = make({"--name=-1.5", "--n=-3"});
  EXPECT_NEAR(f.get_double("name", 0.0, ""), -1.5, 1e-12);
  EXPECT_EQ(f.get_int("n", 0, ""), -3);
  f.finish();
}

TEST(FlagsDeath, FractionalIntegerFlagAborts) {
  EXPECT_DEATH(
      {
        Flags f = make({"--k=2.5"});
        f.get_int("k", 1, "");
      },
      "expects an integer");
}

TEST(FlagsDeath, OutOfIntRangeFlagAborts) {
  // Would be UB if cast before range-checking.
  EXPECT_DEATH(
      {
        Flags f = make({"--seed=5000000000"});
        f.get_int("seed", 1, "");
      },
      "expects an integer");
}

TEST(FlagsDeath, IntegerErrorsEchoTheTokenVerbatim) {
  // The message names what was typed, not a reformatted double: no
  // "1.500000", and no 300-digit expansion of 1e300.
  EXPECT_DEATH(
      {
        Flags f = make({"--threads", "1.5"});
        f.get_int("threads", 0, "");
      },
      "expects an integer, got '1\\.5'\n");
  EXPECT_DEATH(
      {
        Flags f = make({"--threads=1e300"});
        f.get_int("threads", 0, "");
      },
      "expects an integer, got '1e300'\n");
}

TEST(FlagsDeath, HelpPrintsIntegerDefaultsAsIntegers) {
  // Integer defaults print as integers and double defaults in their
  // shortest round-trip form ("0.25", "1e-06"), never "%f"-padded.
  EXPECT_EXIT(
      {
        Flags f = make({"--help"});
        f.get_int("threads", 0, "worker threads");
        f.get_int("seed", 1, "base seed");
        f.get_double("rate", 0.25, "arrival rate");
        f.get_double("tol", 1e-6, "tolerance");
        f.finish();
      },
      testing::ExitedWithCode(0),
      "--rate +arrival rate \\(default 0\\.25\\)\n"
      "  --seed +base seed \\(default 1\\)\n"
      "  --threads +worker threads \\(default 0\\)\n"
      "  --tol +tolerance \\(default 1e-06\\)\n");
}

TEST(FlagsDeath, DuplicateFlagAborts) {
  EXPECT_DEATH(make({"--k=1", "--k=2"}), "more than once");
}

TEST(FlagsDeath, DuplicateFlagMixedSyntaxAborts) {
  EXPECT_DEATH(make({"--k", "1", "--k=1"}), "more than once");
}

TEST(FlagsDeath, DuplicateBareBooleanAborts) {
  EXPECT_DEATH(make({"--verbose", "--verbose"}), "more than once");
}

TEST(FlagsDeath, UnknownFlagAborts) {
  EXPECT_DEATH(
      {
        Flags f = make({"--oops=1"});
        f.get_int("k", 1, "");
        f.finish();
      },
      "unknown flag");
}

TEST(FlagsDeath, NonNumericValueAborts) {
  EXPECT_DEATH(
      {
        Flags f = make({"--k=abc"});
        f.get_int("k", 1, "");
      },
      "expects a number");
}

TEST(FlagsDeath, StrtodLeniencyHolesStayClosed) {
  // Same hole as the engine spec grammar: strtod also accepts "nan",
  // any-case "inf"/"infinity", hex floats and leading whitespace. A
  // numeric flag takes finite plain decimals only; each rejected
  // spelling is echoed back so the user sees what was actually parsed.
  for (const char* bad : {"--rate=nan", "--rate=inf", "--rate=INFINITY",
                          "--rate=-inf", "--rate=0x1p3", "--rate= 2",
                          "--rate=1e999"}) {
    EXPECT_DEATH(
        {
          Flags f = make({bad});
          f.get_double("rate", 0.0, "");
        },
        "expects a number")
        << bad;
  }
  // The echoed value names the offending spelling verbatim.
  EXPECT_DEATH(
      {
        Flags f = make({"--rate=nan"});
        f.get_double("rate", 0.0, "");
      },
      "got 'nan'");
}

TEST(FlagsDeath, PositionalArgumentAborts) {
  EXPECT_DEATH(make({"positional"}), "positional");
}

}  // namespace
}  // namespace p2p
