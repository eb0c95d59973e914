#include "support/logging.hh"

namespace skyway
{

void
logMessage(const char *severity, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", severity, msg.c_str());
    std::fflush(stderr);
}

void
panic(const std::string &msg)
{
    logMessage("panic", msg);
    std::abort();
}

void
panic(const char *msg)
{
    logMessage("panic", msg);
    std::abort();
}

void
fatal(const std::string &msg)
{
    logMessage("fatal", msg);
    std::exit(1);
}

void
warn(const std::string &msg)
{
    logMessage("warn", msg);
}

void
inform(const std::string &msg)
{
    logMessage("info", msg);
}

} // namespace skyway
