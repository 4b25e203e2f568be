#include "src/common/log.hpp"

#include <iostream>
#include <mutex>

namespace bowsim {

void
warn(const std::string &message)
{
    // Serializes writes from concurrent sweep workers.
    static std::mutex m;
    std::lock_guard<std::mutex> lock(m);
    std::cerr << "warn: " << message << "\n";
}

}  // namespace bowsim
