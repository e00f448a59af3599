#include "logging.hh"

#include <atomic>
#include <iostream>
#include <mutex>

namespace reach::sim
{

namespace
{

std::atomic<bool> quietMode{false};

/**
 * Serializes writes to the shared stderr sink so lines from
 * concurrent simulators never interleave mid-message.
 */
std::mutex sinkMu;

} // namespace

void
setQuiet(bool quiet)
{
    quietMode.store(quiet);
}

void
detail::emit(const char *level, const std::string &msg)
{
    // panic/fatal always print; info/warn respect quiet mode.
    bool noisy = level[0] == 'p' || level[0] == 'f';
    if (!noisy && quietMode.load())
        return;
    std::string line;
    line.reserve(msg.size() + 16);
    line.append("[").append(level).append("] ").append(msg).append(
        "\n");
    std::lock_guard<std::mutex> lock(sinkMu);
    std::cerr << line;
}

} // namespace reach::sim
