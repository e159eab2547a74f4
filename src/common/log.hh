/**
 * @file
 * gem5-style status/error reporting. panic() is for internal simulator
 * bugs (aborts); fatal() is for user/configuration errors (clean exit);
 * warn()/inform() report conditions without stopping the simulation.
 *
 * Thread-safe: parallel sweep workers may report concurrently, so a
 * single mutex serializes whole lines (no interleaving) and the quiet
 * flag is atomic. This is the only simulator component that is more
 * than thread-compatible — everything else is owned by one System and
 * must not be shared across runner threads.
 */

#ifndef CHAMELEON_COMMON_LOG_HH
#define CHAMELEON_COMMON_LOG_HH

#include <cstdarg>
#include <string>

namespace chameleon
{

/** Abort the process: something happened that indicates a simulator bug. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit cleanly: the user asked for something the simulator cannot do. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious-but-survivable condition to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Globally silence warn()/inform() (used by tests and sweeps). */
void setQuiet(bool quiet);

/** printf-style formatting into a std::string. */
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Read all of @p path into @p out. On failure returns false with
 * @p error set to "cannot open '<path>'" or "read error on '<path>'".
 */
bool readWholeFile(const std::string &path, std::string &out,
                   std::string &error);

/**
 * Replace @p path with @p body. fatal()s with "<who>: cannot open
 * '<path>' for writing" or "<who>: short write to '<path>'".
 */
void writeWholeFile(const std::string &path, const std::string &body,
                    const char *who);

} // namespace chameleon

#endif // CHAMELEON_COMMON_LOG_HH
