/**
 * @file
 * Small string formatting helpers shared across the simulator,
 * benchmarks, and examples.
 */

#ifndef WLCACHE_UTIL_STRINGS_HH
#define WLCACHE_UTIL_STRINGS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace wlcache {
namespace util {

/** Left-pad @p s with spaces to at least @p width characters. */
std::string padLeft(const std::string &s, std::size_t width);

/** Right-pad @p s with spaces to at least @p width characters. */
std::string padRight(const std::string &s, std::size_t width);

/** Format a double with @p precision digits after the decimal point. */
std::string fmtDouble(double v, int precision = 2);

/**
 * Format a double with 17 significant digits ("%.17g"): the shortest
 * fixed precision that survives a strtod round trip bit for bit, so
 * equal text means equal doubles. Used wherever a number is persisted
 * or hashed (spec keys, run records, saved traces).
 */
std::string fmtExact(double v);

/**
 * Format a byte count with a binary-unit suffix (B, KiB, MiB).
 * Values that are exact multiples render without a fraction,
 * e.g.\ 8192 -> "8KiB".
 */
std::string fmtBytes(std::uint64_t bytes);

/**
 * Format an energy value given in joules using an SI prefix
 * (J, mJ, uJ, nJ, pJ).
 */
std::string fmtEnergy(double joules);

/**
 * Format a duration given in seconds using an SI prefix
 * (s, ms, us, ns).
 */
std::string fmtSeconds(double seconds);

/**
 * Backslash-escape quotes and backslashes so @p s can sit between
 * double quotes in JSON (the names written here are ASCII already).
 */
std::string jsonEscape(const std::string &s);

/** Split @p s on the single-character delimiter @p delim. */
std::vector<std::string> split(const std::string &s, char delim);

/** Concatenate @p parts with @p sep between consecutive parts. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/**
 * 128-bit FNV-1a digest of @p bytes as 32 lowercase hex digits (two
 * independent 64-bit streams with distinct offset bases). Used for
 * content-addressed cache keys and persistent-state digests, where
 * accidental collisions must be negligible but cryptographic
 * strength is not required.
 */
std::string fnv1a128Hex(const void *data, std::size_t bytes);

/** True if @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Lower-case an ASCII string. */
std::string toLower(std::string s);

} // namespace util
} // namespace wlcache

#endif // WLCACHE_UTIL_STRINGS_HH
