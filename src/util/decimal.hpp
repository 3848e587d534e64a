// gcs::util -- the one grammar for numbers typed on a command line or in a
// spec string ("--tol=1e-9", "constant:0.25", "cbr:bw=8000:rate=12").
//
// std::strtod reads far more than decimals: hex floats ("0x.4" is 0.25),
// "inf", "nan" and leading whitespace.  A typo such as "0x.375" for
// "0.375" must be refused, not run as a different number, so every site
// that reads such a number goes through parse_decimal.
#ifndef GCS_UTIL_DECIMAL_HPP
#define GCS_UTIL_DECIMAL_HPP

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

namespace gcs::util {

// The value of `text` if the whole of it is one finite decimal number: an
// optional sign, digits, an optional fraction (".digits") and an optional
// exponent ("e" or "E", an optional sign, digits).  Anything else --
// including an empty string and a value outside the double range --
// gives nullopt.
inline std::optional<double> parse_decimal(const std::string& text) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t start = i;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') ++i;
    return i > start;
  };
  const auto sign = [&] {
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) ++i;
  };
  sign();
  if (!digits()) return std::nullopt;
  if (i < text.size() && text[i] == '.') {
    ++i;
    if (!digits()) return std::nullopt;
  }
  if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
    ++i;
    sign();
    if (!digits()) return std::nullopt;
  }
  if (i != text.size()) return std::nullopt;
  const double value = std::strtod(text.c_str(), nullptr);
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

}  // namespace gcs::util

#endif  // GCS_UTIL_DECIMAL_HPP
