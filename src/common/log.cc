#include "common/log.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace chameleon
{

namespace
{

std::atomic<bool> quietMode{false};

/**
 * Serializes whole report lines: parallel sweep workers (see
 * sim/sweep_runner.hh) call warn()/inform() concurrently, and
 * interleaved half-lines would make the output useless. These two
 * are the only mutable globals in the simulator (verified by the
 * thread-safety audit); everything else hangs off a System.
 */
std::mutex reportMutex;

void
vreport(const char *tag, const char *fmt, va_list ap)
{
    std::lock_guard<std::mutex> lock(reportMutex);
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
}

} // namespace

void
setQuiet(bool quiet)
{
    quietMode = quiet;
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (quietMode)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (quietMode)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("info", fmt, ap);
    va_end(ap);
}

std::string
strFormat(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

bool
readWholeFile(const std::string &path, std::string &out,
              std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error = "cannot open '" + path + "'";
        return false;
    }
    out.clear();
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    const bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad) {
        error = "read error on '" + path + "'";
        return false;
    }
    return true;
}

void
writeWholeFile(const std::string &path, const std::string &body,
               const char *who)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("%s: cannot open '%s' for writing", who, path.c_str());
    const std::size_t wrote =
        std::fwrite(body.data(), 1, body.size(), f);
    if (std::fclose(f) != 0 || wrote != body.size())
        fatal("%s: short write to '%s'", who, path.c_str());
}

} // namespace chameleon
