/**
 * @file
 * Status and error reporting in the gem5 tradition.
 *
 * - panic():  an internal simulator bug; never the user's fault.
 *             Throws SimPanic (so tests can assert on it).
 * - fatal():  the simulation cannot continue because of a user error
 *             (bad configuration, invalid arguments). Throws SimFatal.
 * - warn():   something works well enough but deserves attention.
 * - inform(): plain status messages.
 */

#ifndef REACH_SIM_LOGGING_HH
#define REACH_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace reach::sim
{

/** Thrown by panic(): an internal invariant was violated. */
class SimPanic : public std::logic_error
{
  public:
    explicit SimPanic(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(): user-caused configuration or usage error. */
class SimFatal : public std::runtime_error
{
  public:
    explicit SimFatal(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail
{

void emit(const char *level, const std::string &msg);

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/** Report simulation status the user should see. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::emit("info", detail::format(std::forward<Args>(args)...));
}

/** Report behaviour that might be imprecise but lets the run continue. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emit("warn", detail::format(std::forward<Args>(args)...));
}

/** Abort on an internal simulator bug. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    std::string msg = detail::format(std::forward<Args>(args)...);
    detail::emit("panic", msg);
    throw SimPanic(msg);
}

/** Abort on a user error (bad config, invalid arguments). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::string msg = detail::format(std::forward<Args>(args)...);
    detail::emit("fatal", msg);
    throw SimFatal(msg);
}

/** Suppress or restore warn/inform output (useful in tests). */
void setQuiet(bool quiet);

} // namespace reach::sim

#endif // REACH_SIM_LOGGING_HH
