#include "src/metrics/progress.hpp"

#include <cstdio>

namespace bowsim::metrics {

void
ProgressMeter::start(std::string label, std::size_t total)
{
    std::lock_guard<std::mutex> lock(mu_);
    label_ = std::move(label);
    total_ = total;
    done_ = 0;
    simCycles_ = 0;
    start_ = std::chrono::steady_clock::now();
    lastDone_ = 0.0;
    ewmaGap_ = 0.0;
    active_ = true;
    printLine(false, 0.0);
}

void
ProgressMeter::pointDone(std::uint64_t sim_cycles)
{
    const double now =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    pointDoneAt(sim_cycles, now);
}

void
ProgressMeter::pointDoneAt(std::uint64_t sim_cycles, double now_secs)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!active_)
        return;
    ++done_;
    simCycles_ += sim_cycles;
    // Concurrent workers may take their timestamps slightly out of
    // order relative to lock acquisition; treat that as a zero gap.
    const double gap = now_secs > lastDone_ ? now_secs - lastDone_ : 0.0;
    // Seed the EWMA with the first gap; afterwards blend, so the ETA
    // adapts when later points run longer than the early ones without
    // jumping on a single slow point.
    ewmaGap_ = done_ == 1 ? gap
                          : kEwmaAlpha * gap + (1.0 - kEwmaAlpha) * ewmaGap_;
    lastDone_ = now_secs;
    printLine(false, now_secs);
}

double
ProgressMeter::etaSeconds()
{
    std::lock_guard<std::mutex> lock(mu_);
    return etaLocked();
}

double
ProgressMeter::etaLocked() const
{
    if (done_ == 0 || done_ >= total_)
        return 0.0;
    return ewmaGap_ * static_cast<double>(total_ - done_);
}

void
ProgressMeter::finish()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!active_)
        return;
    const double now =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    printLine(true, now);
    active_ = false;
}

void
ProgressMeter::printLine(bool last, double now_secs)
{
    const double rate =
        now_secs > 0.0 ? static_cast<double>(simCycles_) / now_secs : 0.0;
    std::fprintf(stderr, "\r%s: %zu/%zu points, %.2fM sim-cycles/s",
                 label_.c_str(), done_, total_, rate / 1e6);
    if (done_ < total_)
        std::fprintf(stderr, ", ETA %.0fs ", etaLocked());
    else
        std::fprintf(stderr, ", done in %.1fs", now_secs);
    if (last)
        std::fprintf(stderr, "\n");
    std::fflush(stderr);
}

}  // namespace bowsim::metrics
