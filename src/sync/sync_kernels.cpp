#include "src/sync/sync_kernels.hpp"

#include <sstream>
#include <vector>

#include "src/common/log.hpp"
#include "src/cpuref/sync_cpu.hpp"
#include "src/isa/assembler.hpp"

namespace bowsim::sync {

std::string
syncBenchmarkName(Primitive p, const SyncGeometry &g)
{
    std::ostringstream os;
    os << "SYNC_" << toString(p) << "_" << g.ctas << "x"
       << g.threadsPerCta;
    return os.str();
}

namespace {

/** Words of lock-block storage ahead of the counter/slot arrays. */
unsigned
lockBlockWords(Primitive p, const SyncGeometry &g)
{
    switch (p) {
      case Primitive::TasLock:
      case Primitive::BackoffLock:
        return 1;  // the lock word
      case Primitive::TicketLock:
        return 2;  // next-ticket, now-serving
      case Primitive::ArrayLock:
        return 1 + g.totalWarps();  // tail, then one flag per slot
      case Primitive::GlobalBarrier:
      case Primitive::SystemBarrier:
        break;
    }
    fatal("lockBlockWords: not a lock primitive");
}

class SyncKernelHarness : public KernelHarness {
  public:
    SyncKernelHarness(Primitive p, const SyncGeometry &g)
        : KernelHarness(syncBenchmarkName(p, g)), p_(p), g_(g),
          prog_(assemble(primitiveSource(p, g)))
    {
    }

    void
    setup(Gpu &gpu) override
    {
        const unsigned warps = g_.totalWarps();
        if (isBarrier(p_)) {
            countAddr_ = gpu.malloc(8);
            releaseAddr_ = gpu.malloc(8);
            dataAddr_ = gpu.malloc(g_.ctas * 8);
            errorsAddr_ = gpu.malloc(g_.ctas * 8);
            return;
        }
        lockAddr_ = gpu.malloc(lockBlockWords(p_, g_) * 8);
        counterAddr_ = gpu.malloc(8);
        slotsAddr_ = gpu.malloc(warps * 8);
        ownerAddr_ = gpu.malloc(8);
        errorsAddr_ = gpu.malloc(warps * 8);
        if (p_ == Primitive::ArrayLock) {
            // flags[0] starts open so the first ticket proceeds.
            const Word one = 1;
            gpu.memcpyToDevice(lockAddr_ + 8, &one, 8);
        }
    }

    std::vector<LaunchSpec>
    launches() const override
    {
        const Dim3 grid{g_.ctas, 1, 1};
        const Dim3 block{g_.threadsPerCta, 1, 1};
        if (isBarrier(p_)) {
            return {LaunchSpec{&prog_, grid, block,
                               {static_cast<Word>(countAddr_),
                                static_cast<Word>(releaseAddr_),
                                static_cast<Word>(dataAddr_),
                                static_cast<Word>(errorsAddr_),
                                static_cast<Word>(g_.iters)}}};
        }
        Word extra = 0;
        if (p_ == Primitive::BackoffLock)
            extra = g_.delayFactor;
        else if (p_ == Primitive::ArrayLock)
            extra = g_.totalWarps();  // flag-slot count
        return {LaunchSpec{&prog_, grid, block,
                           {static_cast<Word>(lockAddr_),
                            static_cast<Word>(counterAddr_),
                            static_cast<Word>(slotsAddr_),
                            static_cast<Word>(ownerAddr_),
                            static_cast<Word>(errorsAddr_),
                            static_cast<Word>(g_.iters), extra}}};
    }

    bool
    validate(Gpu &gpu) const override
    {
        if (isBarrier(p_))
            return validateBarrier(gpu);
        return validateLock(gpu);
    }

    std::vector<const Program *>
    programs() const override
    {
        return {&prog_};
    }

    const SyncGeometry &geometry() const { return g_; }

  private:
    bool
    validateLock(Gpu &gpu) const
    {
        const unsigned warps = g_.totalWarps();
        const cpuref::LockRef ref = cpuref::lockReference(p_, g_);
        std::vector<Word> vec(warps);
        Word w = 0;
        gpu.memcpyFromDevice(&w, counterAddr_, 8);
        if (w != ref.counter)
            return false;
        gpu.memcpyFromDevice(vec.data(), slotsAddr_, warps * 8);
        if (vec != ref.slots)
            return false;
        gpu.memcpyFromDevice(vec.data(), errorsAddr_, warps * 8);
        if (vec != ref.errors)
            return false;
        // The owner-witness word ends as the *last* holder's warp id —
        // the one legitimately schedule-dependent byte of the run.
        // Normalize it so final memory digests are comparable across
        // schedulers and execution modes (the equivalence suite relies
        // on this).
        w = 0;
        gpu.memcpyToDevice(ownerAddr_, &w, 8);
        switch (p_) {
          case Primitive::TasLock:
          case Primitive::BackoffLock:
            gpu.memcpyFromDevice(&w, lockAddr_, 8);
            return w == ref.lockWord;
          case Primitive::TicketLock: {
            Word serving = 0;
            gpu.memcpyFromDevice(&w, lockAddr_, 8);
            gpu.memcpyFromDevice(&serving, lockAddr_ + 8, 8);
            return w == ref.nextTicket && serving == ref.nowServing;
          }
          case Primitive::ArrayLock: {
            gpu.memcpyFromDevice(&w, lockAddr_, 8);
            if (w != ref.tail)
                return false;
            std::vector<Word> flags(warps);
            gpu.memcpyFromDevice(flags.data(), lockAddr_ + 8, warps * 8);
            return flags == ref.flags;
          }
          case Primitive::GlobalBarrier:
          case Primitive::SystemBarrier:
            break;
        }
        return false;
    }

    bool
    validateBarrier(Gpu &gpu) const
    {
        const cpuref::BarrierRef ref = cpuref::barrierReference(g_);
        Word w = 0;
        gpu.memcpyFromDevice(&w, countAddr_, 8);
        if (w != ref.count)
            return false;
        gpu.memcpyFromDevice(&w, releaseAddr_, 8);
        if (w != ref.release)
            return false;
        std::vector<Word> vec(g_.ctas);
        gpu.memcpyFromDevice(vec.data(), dataAddr_, g_.ctas * 8);
        if (vec != ref.data)
            return false;
        gpu.memcpyFromDevice(vec.data(), errorsAddr_, g_.ctas * 8);
        return vec == ref.errors;
    }

    Primitive p_;
    SyncGeometry g_;
    Program prog_;
    Addr lockAddr_ = 0;
    Addr counterAddr_ = 0;
    Addr slotsAddr_ = 0;
    Addr ownerAddr_ = 0;
    Addr errorsAddr_ = 0;
    Addr countAddr_ = 0;
    Addr releaseAddr_ = 0;
    Addr dataAddr_ = 0;
};

}  // namespace

std::unique_ptr<KernelHarness>
makeSyncKernel(Primitive p, const SyncGeometry &g)
{
    return std::make_unique<SyncKernelHarness>(p, g);
}

}  // namespace bowsim::sync
