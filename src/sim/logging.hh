/**
 * @file
 * gem5-style status/error reporting: panic() for simulator bugs,
 * fatal() for user/configuration errors, warn() for status.
 */

#ifndef WLCACHE_SIM_LOGGING_HH
#define WLCACHE_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace wlcache {

/**
 * Report an internal simulator bug and abort(). Use only for
 * conditions that can never happen regardless of user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Non-fatal warning about questionable behaviour. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Suppress warn() output (used by tests and benches). */
void setQuiet(bool quiet);

namespace detail {

/** Implementation backend for wlc_assert; always aborts. */
[[noreturn]] void assertFail(const char *expr, const char *file, int line,
                             const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

} // namespace detail

/**
 * Condition check that survives NDEBUG builds; panics with a message
 * naming the failed expression when @p cond is false. An optional
 * printf-style message may follow the condition.
 */
#define wlc_assert(cond, ...)                                             \
    do {                                                                  \
        if (!(cond))                                                      \
            ::wlcache::detail::assertFail(#cond, __FILE__, __LINE__,      \
                                          "" __VA_ARGS__);                \
    } while (0)

} // namespace wlcache

#endif // WLCACHE_SIM_LOGGING_HH
