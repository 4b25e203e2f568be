#ifndef BOWSIM_KERNELS_KERNEL_HARNESS_HPP
#define BOWSIM_KERNELS_KERNEL_HARNESS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/isa/program.hpp"
#include "src/sim/gpu.hpp"
#include "src/stats/stats.hpp"

/**
 * @file
 * Benchmark harness framework. Each benchmark kernel (Section V of the
 * paper) is a KernelHarness: it assembles its device code, sets up device
 * memory, describes one or more launches, and validates the results
 * against a host reference after the run.
 */

namespace bowsim {

/** One kernel launch: program + geometry + parameters. */
struct LaunchSpec {
    const Program *prog;
    Dim3 grid;
    Dim3 block;
    std::vector<Word> params;
};

class KernelHarness {
  public:
    explicit KernelHarness(std::string name) : name_(std::move(name)) {}
    virtual ~KernelHarness() = default;

    KernelHarness(const KernelHarness &) = delete;
    KernelHarness &operator=(const KernelHarness &) = delete;

    const std::string &name() const { return name_; }

    /** Allocates and initializes device memory. */
    virtual void setup(Gpu &gpu) = 0;

    /** Launches to execute, in order. Valid after setup(). */
    virtual std::vector<LaunchSpec> launches() const = 0;

    /** Checks device results against the host reference. */
    virtual bool validate(Gpu &gpu) const = 0;

    /** Ground-truth spin branches across all programs (Table I). */
    std::set<Pc> groundTruthSibs() const;

    /** All programs this harness launches (for DDOS scoring). */
    virtual std::vector<const Program *> programs() const = 0;

    /**
     * Convenience driver: setup + all launches + validate. Returns the
     * accumulated statistics; throws FatalError if validation fails.
     */
    KernelStats run(Gpu &gpu);

  private:
    std::string name_;
};

/**
 * The kernels' one input generator: xorshift64 (Marsaglia) and the
 * xorshift64* output on top of it (Vigna). Every kernel input derives
 * from a fixed seed through it, so inputs are the same on every host.
 */
class XorShift64 {
  public:
    explicit XorShift64(std::uint64_t seed) : x_(seed) {}

    /** Advances the xorshift64 state and returns it. */
    std::uint64_t
    step()
    {
        x_ ^= x_ >> 12;
        x_ ^= x_ << 25;
        x_ ^= x_ >> 27;
        return x_;
    }

    /** The next xorshift64* output: the advanced state, scrambled. */
    std::uint64_t next() { return step() * 0x2545F4914F6CDD1Dull; }

  private:
    std::uint64_t x_;
};

}  // namespace bowsim

#endif  // BOWSIM_KERNELS_KERNEL_HARNESS_HPP
