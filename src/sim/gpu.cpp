#include "src/sim/gpu.hpp"

#include <algorithm>

#include "src/common/log.hpp"
#include "src/isa/verifier.hpp"
#include "src/mem/lock_tracker.hpp"
#include "src/mem/system_link.hpp"
#include "src/metrics/sampler.hpp"
#include "src/sim/functional.hpp"

namespace bowsim {

GpuSystem::GpuSystem(GpuConfig cfg) : cfg_(std::move(cfg)) {}

Addr
GpuSystem::malloc(std::uint64_t bytes)
{
    return mem_.allocate(bytes);
}

void
GpuSystem::memcpyToDevice(Addr dst, const void *src, std::uint64_t bytes)
{
    mem_.writeBytes(dst, src, bytes);
}

void
GpuSystem::memcpyFromDevice(void *dst, Addr src, std::uint64_t bytes)
{
    mem_.readBytes(src, dst, bytes);
}

KernelStats
GpuSystem::launch(const Program &prog, Dim3 grid, Dim3 block,
                  const std::vector<Word> &params)
{
    // The one well-formedness gate, in both modes: the engines index
    // registers, predicates, PCs and annotations unchecked.
    verifyOrDie(prog);
    if (params.size() < prog.numParams)
        fatal("kernel '", prog.name, "' expects ", prog.numParams,
              " params, got ", params.size());
    if (block.count() == 0 || grid.count() == 0)
        fatal("launch with an empty grid or block");

    abort_ = LaunchAbort{};

    // One LaunchState per device, the same for both engines. Lock words
    // live in the one functional memory space, so lock ownership is
    // system-wide: a single tracker classifies a CAS on device 0
    // against a hold taken from device 1 as an inter-warp (not fresh)
    // failure, and warpKeyBase keeps the owner keys unique across
    // devices. CTA sharding: contiguous chunks in device-id order.
    // Device d owns [d*chunk, (d+1)*chunk); %nctaid stays the whole
    // grid, so kernels are oblivious to the split.
    const unsigned num_devices = std::max(cfg_.numDevices, 1u);
    const unsigned grid_ctas = grid.count();
    const unsigned chunk = (grid_ctas + num_devices - 1) / num_devices;
    LockTracker system_locks;
    std::vector<LaunchState> launches(num_devices);
    for (unsigned d = 0; d < num_devices; ++d) {
        LaunchState &dl = launches[d];
        dl.prog = &prog;
        dl.grid = grid;
        dl.block = block;
        dl.params = params;
        dl.mem = &mem_;
        dl.spinDetect = cfg_.spinDetect;
        dl.stats.kernel = prog.name;
        dl.deviceId = d;
        dl.tracker = &system_locks;
        dl.warpKeyBase = static_cast<std::uint64_t>(d) << 48;
        dl.nextCta = std::min(d * chunk, grid_ctas);
        dl.ctaEnd = std::min((d + 1) * chunk, grid_ctas);
    }

    switch (cfg_.execMode) {
      case ExecMode::Functional:
        return launchFunctional(launches);
      case ExecMode::Cycle:
        break;
    }
    return launchCycle(launches);
}

KernelStats
GpuSystem::finish(const std::vector<LaunchState> &launches,
                  const std::vector<std::unique_ptr<SmCore>> &cores,
                  Cycle at) const
{
    // Energy and DDOS accuracy are scored only from a finished cycle
    // launch's cores: per device from the device's own cores, and
    // system-wide from all of them.
    const bool scored = !cores.empty();
    std::vector<DdosAccuracy> acc(scored ? launches.size() : 0);
    for (const auto &core : cores)
        acc[core->device()].merge(core->ddos().accuracy());
    const std::set<Pc> &spin_branches = launches[0].prog->sync.spinBranches;

    // Each device's shard: its launch aggregate at clock @p at, plus its
    // memory system in cycle mode.
    std::vector<KernelStats> shards;
    shards.reserve(launches.size());
    for (std::size_t d = 0; d < launches.size(); ++d) {
        KernelStats s = launches[d].stats;
        s.cycles = at;
        if (launches[d].memsys != nullptr)
            s.mem = launches[d].memsys->stats();
        if (scored) {
            s.energy.l2Accesses = s.mem.l2Accesses;
            s.energy.dramAccesses = s.mem.dramAccesses;
            s.energy.icntPackets = s.mem.icntPackets;
            s.energy.atomicOps = s.mem.atomics;
            s.energyNj = energy_.dynamicEnergyNj(s.energy);
            s.staticEnergyNj = energy_.staticEnergyNj(s.smCycles);
            s.ddos = acc[d].report(spin_branches);
        }
        shards.push_back(std::move(s));
    }
    // A single-device launch returns the lone device's stats unchanged,
    // byte-identical to the pre-split simulator.
    if (shards.size() == 1)
        return std::move(shards[0]);

    // Multi-device launches fold the shards in device-id order and
    // rebuild the per-SM tables by concatenation (operator+= folds them
    // positionally, which would overlay device 1's SM rows onto device
    // 0's; the system-wide tables use global, device-major SM rows).
    KernelStats total = shards[0];
    for (std::size_t d = 1; d < shards.size(); ++d)
        total += shards[d];
    total.cycles = at;
    total.stallCounts.clear();
    total.unitIssues.clear();
    total.peakResidentPerSm.clear();
    for (const KernelStats &s : shards) {
        total.stallCounts.insert(total.stallCounts.end(),
                                 s.stallCounts.begin(), s.stallCounts.end());
        total.unitIssues.insert(total.unitIssues.end(), s.unitIssues.begin(),
                                s.unitIssues.end());
        total.peakResidentPerSm.insert(total.peakResidentPerSm.end(),
                                       s.peakResidentPerSm.begin(),
                                       s.peakResidentPerSm.end());
    }
    if (scored) {
        // Recomputed from the merged events rather than summed, so
        // each system-wide energy is one model evaluation over the
        // merged counts; operator+= does not merge the accuracy report,
        // and the DDOS report's rates must score the system-wide
        // confusion counts.
        total.energyNj = energy_.dynamicEnergyNj(total.energy);
        total.staticEnergyNj = energy_.staticEnergyNj(total.smCycles);
        DdosAccuracy all;
        for (const auto &core : cores)
            all.merge(core->ddos().accuracy());
        total.ddos = all.report(spin_branches);
    }
    total.perDevice = std::move(shards);
    return total;
}

KernelStats
GpuSystem::launchCycle(std::vector<LaunchState> &launches)
{
    const Program &prog = *launches[0].prog;
    const unsigned num_devices = static_cast<unsigned>(launches.size());
    const unsigned num_cores = cfg_.numCores;
    const unsigned total_cores = num_cores * num_devices;

    // Device-local memory systems (L2 banks, DRAM, crossbars). The peer
    // table routes remote requests over the one link; with one device
    // request() never consults it (home == self always), keeping the
    // launch byte-identical to the pre-split simulator.
    SystemLink link(cfg_);
    std::vector<std::unique_ptr<MemorySystem>> memsys;
    std::vector<MemorySystem *> peers;
    for (unsigned d = 0; d < num_devices; ++d) {
        memsys.push_back(std::make_unique<MemorySystem>(cfg_));
        peers.push_back(memsys.back().get());
    }
    for (unsigned d = 0; d < num_devices; ++d) {
        LaunchState &dl = launches[d];
        dl.memsys = memsys[d].get();
        dl.trace =
            trace::Tracer(traceSink_, static_cast<std::uint16_t>(d));
        dl.memsys->setTrace(dl.trace);
        // One registry serves all devices (like the system lock
        // tracker): lock words live in the shared functional memory, so
        // attribution must be system-wide. The L2 handle feeds the
        // local/remote split per requesting device.
        dl.sync = syncprof::SyncProf(syncProf_);
        dl.memsys->setSyncProf(dl.sync);
        if (num_devices > 1)
            dl.memsys->setSystem(&link, peers.data(), d, num_devices);
    }

    // Cores are flat and device-major (index = device * numCores +
    // local id). SmCore::id() stays the device-local id — it feeds
    // crossbar port indexing and stall-table rows, both per-device
    // concepts.
    std::vector<std::unique_ptr<SmCore>> cores;
    cores.reserve(total_cores);
    for (unsigned d = 0; d < num_devices; ++d) {
        for (unsigned c = 0; c < num_cores; ++c)
            cores.push_back(std::make_unique<SmCore>(c, cfg_, launches[d]));
    }

    // Only busy SMs are cycled. An SM with no resident CTAs once its
    // device's CTA dispatcher has drained can never become busy again,
    // so it leaves the active list permanently. Its only remaining
    // architectural effect would have been the per-cycle delay-limit
    // accounting (its adaptive estimator sees no instructions, so its
    // limit is constant from then on) — applied analytically below,
    // per device, from the retired-SM count and the sum of their
    // limits, so statistics stay bit-identical with the
    // cycle-everything loop.
    //
    // Per-SM wake horizons (docs/PERF.md): an SM with no ready warp
    // after cycle `now` cannot issue before nextWorkCycle(now), so it
    // sleeps until that cycle and replays the skipped cycles'
    // accounting with fastForward() when it wakes, before a metrics
    // sample, or before an abort is stashed. While it sleeps, its L1
    // port still steps once per cycle, at its place in core order, so
    // the memory system sees the same request sequence. Another SM
    // cannot wake it early: memory and link replies are scheduled into
    // the requester's LD/ST events at request time, and functional
    // memory is read only at issue. Disabled while a trace sink is
    // attached: per-cycle IssueStall events cannot be synthesized for
    // cycles that never run.
    struct ActiveSm {
        SmCore *core;
        /** First cycle this SM may issue again; it runs live from here. */
        Cycle wake;
        /** Last cycle this SM has accounted for, live or replayed. */
        Cycle lastRun;
    };
    std::vector<ActiveSm> active;
    active.reserve(cores.size());
    for (auto &core : cores)
        active.push_back({core.get(), 1, 0});
    std::vector<std::uint64_t> idle_cores(num_devices, 0);
    std::vector<std::uint64_t> idle_delay_sum(num_devices, 0);
    const bool skip = cfg_.idleSkip && traceSink_ == nullptr;
    auto catch_up = [](ActiveSm &sm, Cycle through) {
        if (sm.lastRun < through) {
            sm.core->fastForward(sm.lastRun + 1, through);
            sm.lastRun = through;
        }
    };

    // Metrics sampling (docs/METRICS.md): samples are pulled at the end
    // of the cycle iteration, once every SM has run the cycle or been
    // caught up through it, whenever the clock has reached the
    // sampler's next grid cycle, and read the same stats fold the
    // launch returns. kNeverCycle keeps the detached fast path to a
    // single always-false compare per cycle.
    const metrics::SampleSources msrc{&cores, syncProf_};
    Cycle metricsNext = kNeverCycle;
    if (metrics_) {
        metrics_->beginLaunch(prog.name, total_cores, num_devices,
                              syncProf_ != nullptr);
        metricsNext = metrics_->nextSampleCycle();
    }
    // Clamp jump targets so a deadlocked kernel (horizon at infinity,
    // or beyond the watchdog) still trips the same fatal at the same
    // cycle as the cycle-by-cycle loop.
    const Cycle wd_stop = cfg_.watchdogCycles >= kNeverCycle - 1
                              ? kNeverCycle - 1
                              : cfg_.watchdogCycles + 1;

    Cycle now = 0;
    Cycle last_issue = 0;

    // Index into `active` of the SM inside cycle(now) or its port step:
    // the ones before it are through cycle `now`, the rest are not.
    std::size_t running = 0;
    try {
    do {
        ++now;
        running = 0;
        if (now > cfg_.watchdogCycles) {
            abort_.cause = AbortCause::Watchdog;
            simFatal("kernel '", prog.name, "' exceeded the ",
                     cfg_.watchdogCycles, "-cycle watchdog (deadlock?)");
        }
        for (unsigned d = 0; d < num_devices; ++d) {
            launches[d].stats.delayLimitCycleSum += idle_delay_sum[d];
            launches[d].stats.smCycles += idle_cores[d];
        }
        // One pass: each SM runs the cycle, or port-steps while it
        // sleeps, and folds its wake into the horizon. busy() changes
        // only inside the SM's own cycle(), so an SM leaves the list
        // only in a cycle it ran: nothing to catch up.
        bool issued = false;
        Cycle horizon = kNeverCycle;
        while (running < active.size()) {
            ActiveSm &sm = active[running];
            SmCore &core = *sm.core;
            if (now >= sm.wake) {
                catch_up(sm, now - 1);
                sm.lastRun = now;
                issued |= core.cycle(now);
                if (!core.busy()) {
                    idle_delay_sum[core.device()] +=
                        core.backoff().delayLimit();
                    ++idle_cores[core.device()];
                    active.erase(active.begin() + running);
                    continue;
                }
                sm.wake = skip ? core.nextWorkCycle(now) : now + 1;
            } else if (core.portBusy()) {
                sm.wake = std::min(sm.wake, core.portStep(now));
            }
            // A busy port steps next cycle, whether the SM sleeps or not.
            horizon = std::min(horizon, core.portBusy() ? now + 1 : sm.wake);
            ++running;
        }
        if (issued)
            last_issue = now;
        // Every SM sleeps: jump the clock to the first wake. Clamp to
        // the watchdog so a deadlock (horizon at infinity) trips the
        // same fatal at the same cycle, and never past a sample cycle,
        // so the clock lands exactly on every grid cycle.
        Cycle target = std::min(horizon, wd_stop);
        if (metricsNext != kNeverCycle)
            target = std::min(target, metricsNext + 1);
        if (!active.empty() && target > now + 1) {
            // Skip cycles now+1 .. target-1; cycle target runs live.
            const Cycle to = target - 1;
            const std::uint64_t delta = to - now;
            for (unsigned d = 0; d < num_devices; ++d) {
                launches[d].stats.delayLimitCycleSum +=
                    idle_delay_sum[d] * delta;
                launches[d].stats.smCycles += idle_cores[d] * delta;
            }
            now = to;
        }
        if (now >= metricsNext) {
            for (ActiveSm &sm : active)
                catch_up(sm, now);
            metrics_->sample(finish(launches, {}, now), msrc);
            metricsNext = metrics_->nextSampleCycle();
        }
    } while (!active.empty());
    } catch (...) {
        // A launch that dies (watchdog, or a SimError out of a core)
        // stashes its partial statistics first, so callers like the
        // litmus harness can classify the abort. The stash is the
        // cycle-everything loop's partial state: SMs that ran cycle
        // `now` before the throw are settled through it, the rest
        // through now - 1, so it is byte-identical across idle-skip.
        for (std::size_t i = 0; i < active.size(); ++i)
            catch_up(active[i], i < running ? now : now - 1);
        const Cycle at = now > 0 ? now - 1 : 0;
        abort_.valid = true;
        abort_.stats = finish(launches, {}, at);
        abort_.atCycle = at;
        abort_.lastIssueCycle = last_issue;
        throw;
    }

    // The final cycle of the launch is recorded even when it falls off
    // the sample grid, so the series' last row matches the returned
    // KernelStats.
    KernelStats stats = finish(launches, cores, now);
    if (metrics_)
        metrics_->endLaunch(stats, msrc);
    return stats;
}

KernelStats
GpuSystem::launchFunctional(std::vector<LaunchState> &launches)
{
    // Functional mode forces null observability sinks: there are no
    // cycles to trace or sample, so an attached trace sink or metrics
    // sampler is simply not consulted (docs/PERF.md).
    //
    // One executor per device over the device's CTA chunk, interleaved
    // round-robin in fixed slices so cross-device synchronization (e.g.
    // a system barrier) makes forward progress deterministically.
    // Spinning warps execute instructions, so a device stuck on a peer
    // is bounded by its own executor's instruction watchdog; CTA
    // barriers are device-local, so the per-executor zero-progress
    // check keeps its meaning. An executor's rotation cursor persists
    // across runFor calls, so a lone device runs the same instruction
    // sequence in slices as it would in one go.
    std::vector<std::unique_ptr<FunctionalExecutor>> fxs;
    for (LaunchState &dl : launches)
        fxs.push_back(std::make_unique<FunctionalExecutor>(cfg_, dl));

    // Round-robin slices, device-id order: large enough to amortize the
    // rotation walk, small enough that a device spinning on a peer's
    // store observes it within one pass.
    constexpr std::uint64_t kDeviceSlice = 1024;
    // Set before each runFor, the only call in the loop that throws.
    const FunctionalExecutor *running = nullptr;
    try {
        bool all_done = false;
        while (!all_done) {
            all_done = true;
            for (auto &fx : fxs) {
                running = fx.get();
                if (!fx->finished() && !fx->runFor(kDeviceSlice))
                    all_done = false;
            }
        }
    } catch (...) {
        // Functional aborts (instruction watchdog, zero-progress check)
        // stash the partial stats like the cycle loop; without a cycle
        // clock the abort and issue-recency cycles stay zero.
        abort_.valid = true;
        abort_.cause = running->abortCause();
        abort_.stats = finish(launches, {}, 0);
        throw;
    }
    return finish(launches, {}, 0);
}

}  // namespace bowsim
