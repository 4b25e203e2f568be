#ifndef BOWSIM_COMMON_LOG_HPP
#define BOWSIM_COMMON_LOG_HPP

#include <sstream>
#include <stdexcept>
#include <string>

/**
 * @file
 * Error-reporting helpers, following the gem5 fatal/panic distinction:
 * fatal() is a user error (bad configuration, malformed assembly), panic()
 * is a simulator bug (broken invariant). Both throw so tests can assert on
 * them; the CLI tools let the exception terminate the process.
 *
 * simFatal() marks the subset of fatal conditions raised *while a kernel
 * is being simulated* (watchdog timeout, out-of-bounds device access).
 * These throw SimError, which derives from FatalError, so existing
 * catch sites keep working while sweep harnesses can catch a diverging
 * simulation point and keep the rest of the sweep alive.
 */

namespace bowsim {

/** Thrown on user-caused errors (bad config, malformed kernel assembly). */
class FatalError : public std::runtime_error {
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what) {}
};

/**
 * Thrown when one *simulated run* goes wrong: deadlock watchdog,
 * out-of-bounds device access, a kernel that does not fit on an SM.
 * Catchable per sweep point without aborting the whole process.
 */
class SimError : public FatalError {
  public:
    explicit SimError(const std::string &what) : FatalError(what) {}
};

/** Thrown on internal invariant violations (simulator bugs). */
class PanicError : public std::logic_error {
  public:
    explicit PanicError(const std::string &what) : std::logic_error(what) {}
};

namespace detail {

inline void
formatInto(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    formatInto(os, rest...);
}

template <typename... Args>
std::string
format(const Args &...args)
{
    std::ostringstream os;
    formatInto(os, args...);
    return os.str();
}

}  // namespace detail

/** Report an unrecoverable user error. Never returns. */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    throw FatalError(detail::format(args...));
}

/** Report an unrecoverable error inside a simulated run. Never returns. */
template <typename... Args>
[[noreturn]] void
simFatal(const Args &...args)
{
    throw SimError(detail::format(args...));
}

/** Report a simulator bug. Never returns. */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    throw PanicError(detail::format(args...));
}

}  // namespace bowsim

#endif  // BOWSIM_COMMON_LOG_HPP
