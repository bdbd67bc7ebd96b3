// Deterministic number rendering: the shortest decimal that reads back
// as the same double, in std::to_chars(double)'s exact bytes.
//
// Every emitter in the tree (report rows, event logs, monitor
// advisories, SVG and summary JSON, flag help) formats its numbers
// here, so one printer decides every archived byte. JSON goes through
// util/json.hpp's writer, which spells non-finite numbers null.
//
// The digits come from Dragonbox (J. Jeon, 2020), which refines
// Schubfach (R. Giulietti, 2020) to one 128-bit multiply in the common
// case: the shortest decimal inside the double's rounding interval, the
// closest to the double among those, a tie going to the even last
// digit — the decimal Ryu (U. Adams, PLDI 2018), and so libstdc++'s
// to_chars, selects. The notation follows [charconv.to.chars]: fixed
// unless scientific is strictly shorter.
//
// Every normal double takes that path, with one exception: a value of
// 2^53 or more whose fixed form pads the shortest digits with zeros.
// std::to_chars prints such a value with its exact digits
// (123456789012345683968, not 123456789012345680000). Those values and
// the subnormals fall through to std::to_chars itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace p2p {

/// The most bytes format_number emits: the shortest round-trip form of
/// any double ("-2.2250738585072014e-308") is 24 characters.
inline constexpr std::size_t kMaxNumberChars = 24;

/// Writes format_number(value) to `out`, which must have room for
/// kMaxNumberChars bytes; returns one past the last byte written. The
/// bytes after that, up to out + kMaxNumberChars, may be overwritten.
/// Finite values get std::to_chars(double)'s bytes; non-finite ones are
/// spelled "inf", "-inf" and "nan" (whatever the NaN's sign).
char* format_number_to(char* out, double value);

/// format_number_to(out, static_cast<double>(value)), without the
/// double round trip below 2^53: the integer's digits, or "1.2e+07"
/// when the scientific form is the shorter.
char* format_integer_to(char* out, std::uint64_t value);

/// format_number appended to `out` with one append.
void format_number_into(std::string& out, double value);

std::string format_number(double value);

}  // namespace p2p
