#include "sim/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace wlcache {

namespace {

// Atomic: runner worker threads read this while a driver thread may
// still be configuring verbosity.
std::atomic<bool> quiet_flag{ false };

void
vreport(const char *tag, const char *fmt, std::va_list ap)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
}

} // anonymous namespace

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (quiet_flag)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
setQuiet(bool quiet)
{
    quiet_flag = quiet;
}

namespace detail {

void
assertFail(const char *expr, const char *file, int line, const char *fmt,
           ...)
{
    std::fprintf(stderr, "panic: assertion '%s' failed at %s:%d", expr,
                 file, line);
    if (fmt && fmt[0]) {
        std::fputs(": ", stderr);
        std::va_list ap;
        va_start(ap, fmt);
        std::vfprintf(stderr, fmt, ap);
        va_end(ap);
    }
    std::fputc('\n', stderr);
    std::abort();
}

} // namespace detail

} // namespace wlcache
