// util::parse_decimal, the one number grammar for command-line and spec
// strings: a finite decimal and nothing else.
#include "util/decimal.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <utility>

namespace {

using gcs::util::parse_decimal;

TEST(Decimal, AcceptsSignedDecimalsWithFractionAndExponent) {
  const std::pair<const char*, double> good[] = {
      {"0", 0.0},       {"42", 42.0},       {"-3", -3.0},
      {"+3", 3.0},      {"0.25", 0.25},     {"-0.375", -0.375},
      {"1e-1", 0.1},    {"2E3", 2000.0},    {"1.5e+2", 150.0},
      {"007", 7.0},     {"1e-400", 0.0},
  };
  for (const auto& [text, want] : good) {
    const std::optional<double> got = parse_decimal(text);
    ASSERT_TRUE(got.has_value()) << text;
    EXPECT_EQ(*got, want) << text;
  }
}

TEST(Decimal, RefusesEverythingElse) {
  for (const char* text :
       {"", " 1", "1 ", "+", "-", ".5", "5.", "1e", "1e+", "1.2.3", "--1",
        "0x10", "0X10", "0x.4", "0x1p-2", "1p3", "inf", "-inf", "infinity",
        "nan", "NAN", "1e999", "-1e999", "0.25x", "1,5", "1_000", "e5"}) {
    EXPECT_FALSE(parse_decimal(text).has_value()) << "'" << text << "'";
  }
}

}  // namespace
