#include "common/args.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace w4k {
namespace {

Args make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Args, SpaceSeparatedValues) {
  const Args a = make({"--users", "6", "--distance", "3.5"});
  EXPECT_EQ(a.get("users", 0), 6);
  EXPECT_DOUBLE_EQ(a.get("distance", 0.0), 3.5);
}

TEST(Args, EqualsSeparatedValues) {
  const Args a = make({"--scheme=opt-multicast", "--seed=42"});
  EXPECT_EQ(a.get("scheme", std::string{}), "opt-multicast");
  EXPECT_EQ(a.get("seed", 0), 42);
}

TEST(Args, FlagsWithoutValues) {
  const Args a = make({"--no-adapt", "--users", "2"});
  EXPECT_TRUE(a.has("no-adapt"));
  EXPECT_FALSE(a.has("adapt"));
  EXPECT_EQ(a.get("users", 0), 2);
}

TEST(Args, FlagFollowedByOption) {
  // "--verbose --users 3": verbose must not swallow "--users".
  const Args a = make({"--verbose", "--users", "3"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_EQ(a.get("users", 0), 3);
}

TEST(Args, DefaultsWhenAbsent) {
  const Args a = make({});
  EXPECT_EQ(a.get("users", 7), 7);
  EXPECT_DOUBLE_EQ(a.get("x", 1.5), 1.5);
  EXPECT_EQ(a.get("name", std::string("d")), "d");
  EXPECT_FALSE(a.get("flag", false));
  EXPECT_TRUE(a.get("flag", true));
}

TEST(Args, BooleanValues) {
  const Args a = make({"--a=true", "--b=0", "--c", "--d=off"});
  EXPECT_TRUE(a.get("a", false));
  EXPECT_FALSE(a.get("b", true));
  EXPECT_TRUE(a.get("c", false));  // bare flag = true
  EXPECT_FALSE(a.get("d", true));
}

TEST(Args, MalformedNumbersThrow) {
  const Args a = make({"--users=abc", "--dist=1.5x"});
  EXPECT_THROW(a.get("users", 0), std::invalid_argument);
  EXPECT_THROW(a.get("dist", 0.0), std::invalid_argument);
}

TEST(Args, MalformedBoolThrows) {
  const Args a = make({"--flag=maybe"});
  EXPECT_THROW(a.get("flag", false), std::invalid_argument);
}

TEST(Args, EqualsWithEmptyValueActsAsFlag) {
  // "--key=" stores an empty value: typed getters fall back to defaults
  // (no value to parse) and the boolean getter reads presence as true.
  const Args a = make({"--key="});
  EXPECT_TRUE(a.has("key"));
  EXPECT_FALSE(a.value("key").has_value());
  EXPECT_EQ(a.get("key", std::string("d")), "d");
  EXPECT_EQ(a.get("key", 9), 9);
  EXPECT_TRUE(a.get("key", false));
}

TEST(Args, ValueContainingEqualsSplitsAtFirst) {
  const Args a = make({"--filter=name=value"});
  EXPECT_EQ(a.get("filter", std::string{}), "name=value");
}

TEST(Args, PartiallyNumericValuesThrow) {
  // std::stoi/stod would accept the numeric prefix; the parser must not.
  const Args a = make({"--n=1e3", "--d=2.5.6", "--m=3,000"});
  EXPECT_THROW(a.get("n", 0), std::invalid_argument);
  EXPECT_THROW(a.get("d", 0.0), std::invalid_argument);
  EXPECT_THROW(a.get("m", 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(a.get("n", 0.0), 1000.0);  // fine as a double
}

TEST(Args, IntegerOverflowThrows) {
  const Args a = make({"--n=99999999999999999999"});
  EXPECT_THROW(a.get("n", 0), std::invalid_argument);
}

TEST(Args, EmptyAndWhitespaceValuesThrow) {
  const Args a = make({"--n", " ", "--d=\t"});
  EXPECT_THROW(a.get("n", 0), std::invalid_argument);
  EXPECT_THROW(a.get("d", 0.0), std::invalid_argument);
}

TEST(Args, NegativeNumberIsAValueNotAFlag) {
  // "-5" has no leading "--", so it is the value of the preceding option.
  const Args a = make({"--offset", "-5", "--gain=-2.5"});
  EXPECT_EQ(a.get("offset", 0), -5);
  EXPECT_DOUBLE_EQ(a.get("gain", 0.0), -2.5);
}

TEST(Args, OptionFollowedByOptionGetsNoValue) {
  // "--a --b 3": a must not swallow "--b" as its value.
  const Args a = make({"--a", "--b", "3"});
  EXPECT_TRUE(a.has("a"));
  EXPECT_FALSE(a.value("a").has_value());
  EXPECT_EQ(a.get("b", 0), 3);
}

TEST(Args, RepeatedOptionLastOneWins) {
  const Args a = make({"--n=1", "--n=2"});
  EXPECT_EQ(a.get("n", 0), 2);
}

TEST(Args, PositionalArguments) {
  const Args a = make({"input.y4m", "--users", "2", "output.y4m"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "input.y4m");
  EXPECT_EQ(a.positional()[1], "output.y4m");
}

TEST(Args, UnqueriedDetectsTypos) {
  const Args a = make({"--users", "2", "--uzers", "3"});
  (void)a.get("users", 0);
  const auto unknown = a.unqueried();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "uzers");
}

TEST(Args, UnqueriedEmptyWhenAllUsed) {
  const Args a = make({"--x", "1"});
  (void)a.get("x", 0);
  EXPECT_TRUE(a.unqueried().empty());
}

// Message of the std::invalid_argument `f` throws ("" = no throw).
template <typename F>
std::string rejection(F f) {
  try {
    f();
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

TEST(Args, InRangeValuesAndDefaultsPass) {
  const Args a = make({"--port", "9460", "--fps=0", "--gain=1.5"});
  EXPECT_EQ(a.get_in("port", 1, 0, 65535), 9460);
  EXPECT_DOUBLE_EQ(a.get_in("fps", 30.0, 0.0, 1e9), 0.0);  // bounds included
  EXPECT_DOUBLE_EQ(a.get_in("gain", 0.0, 1.5, 1.5), 1.5);
  EXPECT_EQ(a.get_in("absent", 7, 1, 10), 7);
}

TEST(Args, OutOfRangeNamesTheFlagAndRange) {
  // A port past 65535 must not wrap into a valid uint16 (70000 -> 4464).
  const Args a = make({"--port=70000", "--subs=0", "--rate=-0.5"});
  EXPECT_EQ(rejection([&] { a.get_in("port", 9460, 1, 65535); }),
            "--port must be in [1, 65535], got 70000");
  EXPECT_EQ(rejection([&] { a.get_in("subs", 64, 1, 1000); }),
            "--subs must be in [1, 1000], got 0");
  EXPECT_NE(rejection([&] { a.get_in("rate", 1.0, 0.0, 10.0); })
                .find("--rate must be in [0, 10]"),
            std::string::npos);
  // A default outside the range fails the same way.
  EXPECT_NE(rejection([&] { a.get_in("sockets", 4, 1, 2); }), "");
}

TEST(Args, InRangeRejectsNaNAndMalformedValues) {
  const Args a = make({"--d=nan", "--port=abc", "--n=12x"});
  EXPECT_NE(rejection([&] { a.get_in("d", 0.0, -1e300, 1e300); }), "");
  EXPECT_NE(rejection([&] { a.get_in("port", 9460, 1, 65535); })
                .find("expected an integer"),
            std::string::npos);
  EXPECT_THROW(a.get_in("n", 0, 0, 100), std::invalid_argument);
}

}  // namespace
}  // namespace w4k
