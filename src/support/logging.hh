/**
 * @file
 * Error-reporting helpers in the gem5 tradition: panic() for internal
 * invariant violations, fatal() for user/configuration errors, warn() and
 * inform() for status messages that do not stop the run.
 */

#ifndef SKYWAY_SUPPORT_LOGGING_HH
#define SKYWAY_SUPPORT_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace skyway
{

/** Print a formatted message to stderr with a severity prefix. */
void logMessage(const char *severity, const std::string &msg);

/**
 * Abort the process: an internal invariant was violated. Use for
 * conditions that indicate a bug in the runtime itself, never for bad
 * input.
 */
[[noreturn]] void panic(const std::string &msg);

/** panic() for a literal message: nothing is built at the call site. */
[[noreturn]] void panic(const char *msg);

/**
 * Exit with an error: the run cannot continue because of a condition that
 * is the caller's fault (bad configuration, invalid arguments).
 */
[[noreturn]] void fatal(const std::string &msg);

/** Alert the user to suspicious but survivable conditions. */
void warn(const std::string &msg);

/** Provide normal operating status to the user. */
void inform(const std::string &msg);

/**
 * Assert an internal invariant; panics with @p msg when @p cond is
 * true. Unlike assert(3) this is active in all build types — the
 * runtime manipulates raw heap memory and silent corruption is worse
 * than a halt.
 *
 * Checks run inside the per-byte and per-record loops of the sender,
 * the receiver and the heap, so a check that passes must cost one
 * branch and nothing else. The rule for writing one:
 *
 *  - A fixed message is a string literal: `panicIf(cond, "...")`.
 *    The message parameter is a `const char *` and there is no
 *    `std::string` overload, so a message that would be built (and
 *    heap-allocated) before the test is a compile error.
 *  - A message that needs runtime values is formatted only on
 *    failure: `if (cond) panic("..." + std::to_string(v));`. panic()
 *    is [[noreturn]], so the compiler already lays that branch out
 *    as cold.
 */
inline void
panicIf(bool cond, const char *msg)
{
    if (cond) [[unlikely]]
        panic(msg);
}

} // namespace skyway

#endif // SKYWAY_SUPPORT_LOGGING_HH
