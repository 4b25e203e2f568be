#ifndef BOWSIM_TRACE_TRACE_HPP
#define BOWSIM_TRACE_TRACE_HPP

#include <cstdint>
#include <string>

#include "src/common/types.hpp"

/**
 * @file
 * Cycle-level structured event tracing (see docs/TRACING.md).
 *
 * Every instrumentation site in the simulator funnels through a Tracer,
 * a two-word handle holding a TraceSink pointer. The null Tracer (no
 * sink) is the compiled-in default: each site costs one pointer test, so
 * the hot path stays within noise of the untraced build. Sinks receive
 * fixed-size POD TraceEvent records; the ring-buffered recorder
 * (ring_recorder.hpp) retains the most recent N of them and the Chrome
 * exporter (chrome_exporter.hpp) turns a recording into a
 * `chrome://tracing` / Perfetto-loadable JSON document.
 *
 * Tracing is observational by construction: no simulator component may
 * read anything back from a Tracer, so a traced run and an untraced run
 * of the same configuration are bit-identical (tests/test_differential
 * enforces this).
 */

namespace bowsim::trace {

/** What happened. Interval kinds come in Enter/Exit pairs. */
enum class EventKind : std::uint16_t {
    // --- SM core pipeline ------------------------------------------------
    Fetch,         ///< warp won arbitration; a0 = pc
    Issue,         ///< instruction issued; a0 = pc, a1 = opcode | lanes<<8
    Writeback,     ///< scoreboard release; a0 = pc
    IssueStall,    ///< scheduler unit issued nothing; a0 = StallCause
    // --- memory system ----------------------------------------------------
    L1Miss,        ///< L1D load miss; a0 = line address
    MshrMerge,     ///< load merged into an outstanding fill; a0 = line
    L2Miss,        ///< L2 bank miss (DRAM fetch); a0 = line
    AtomicSerialize, ///< atomic at an L2 bank; a0 = address, a1 = wait cycles
    // --- DDOS -----------------------------------------------------------
    SibConfirm,    ///< SIB-PT confirmed a spin-inducing branch; a0 = pc
    SibEvict,      ///< SIB-PT evicted a candidate entry; a0 = evicted pc
    DetectTrue,    ///< confirmed SIB is a ground-truth spin branch; a0 = pc
    DetectFalse,   ///< confirmed SIB is a false positive; a0 = pc
    // --- BOWS -----------------------------------------------------------
    BackoffEnter,  ///< warp entered the backed-off queue; a0 = FIFO seq
    BackoffExit,   ///< warp left the queue at issue; a0 = armed delay
    BackoffCount,  ///< backed-off warp count after a transition; a0 = count
    // --- barriers ---------------------------------------------------------
    BarrierEnter,  ///< warp arrived at a CTA barrier; a0 = pc
    BarrierExit,   ///< barrier released this warp
    kCount
};

/**
 * Why a warp (or a whole scheduler unit) could not issue this cycle.
 * The order mirrors SmCore::eligible()'s checks; classification picks
 * the first blocking condition.
 */
enum class StallCause : std::uint8_t {
    Issued,        ///< not stalled: the warp issued this cycle
    IbufferEmpty,  ///< scheduler unit has no resident warps at all
    Barrier,       ///< waiting at a CTA barrier
    Backoff,       ///< BOWS back-off delay has not expired
    Scoreboard,    ///< data hazard on a source/destination register
    PipelineBusy,  ///< LD/ST unit cannot accept another instruction
    Arbitration,   ///< eligible, but another warp won the issue slot
    kCount
};

constexpr unsigned kNumStallCauses =
    static_cast<unsigned>(StallCause::kCount);

/** Short stable identifier, e.g. "scoreboard" (JSON/table output). */
const char *toString(StallCause cause);

/** Short stable identifier, e.g. "issue" (Chrome event names). */
const char *toString(EventKind kind);

/**
 * Event categories for --trace-filter (docs/TRACING.md): each EventKind
 * belongs to exactly one category; a filter is a bitmask of them. The
 * "sync" filter token selects Ddos|Bows|Barrier — the spin-detection
 * and back-off machinery plus barriers, i.e. everything synchronization
 * — so sync-focused traces of long litmus runs stay small.
 */
enum class Category : std::uint32_t {
    Pipe = 1u << 0,     ///< Fetch/Issue/Writeback/IssueStall
    Mem = 1u << 1,      ///< L1Miss/MshrMerge/L2Miss/AtomicSerialize
    Ddos = 1u << 2,     ///< SibConfirm/SibEvict/DetectTrue/DetectFalse
    Bows = 1u << 3,     ///< BackoffEnter/BackoffExit/BackoffCount
    Barrier = 1u << 4,  ///< BarrierEnter/BarrierExit
};

/** The category bit of @p kind. */
std::uint32_t categoryOf(EventKind kind);

/**
 * Parses a comma-separated --trace-filter list ("sync,mem", "pipe",
 * ...) into a category bitmask. Tokens: pipe, mem, ddos, bows, barrier,
 * and the alias sync (= ddos|bows|barrier). Returns false on an unknown
 * or empty token; *mask is then unspecified.
 */
bool parseCategoryFilter(const std::string &text, std::uint32_t *mask);

/** One fixed-size trace record (40 bytes; binary-dump friendly). */
struct TraceEvent {
    Cycle cycle = 0;
    std::uint32_t sm = 0;
    /** Warp slot within the SM; -1 when no single warp is involved. */
    std::int32_t warp = -1;
    EventKind kind = EventKind::Issue;
    /** Device that emitted the event (0 on single-device runs). */
    std::uint16_t device = 0;
    /** Explicit padding so the record has no implicit holes. */
    std::uint32_t pad = 0;
    /** Kind-specific payload (see EventKind comments). */
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
};

static_assert(sizeof(TraceEvent) == 40, "TraceEvent must stay packed");

/** Receives every emitted event. Implementations must not throw. */
class TraceSink {
  public:
    virtual ~TraceSink() = default;
    virtual void emit(const TraceEvent &ev) = 0;
};

/**
 * The handle instrumentation sites hold. Copyable by value; a
 * default-constructed Tracer is the null sink and reduces every emit to
 * one branch.
 */
class Tracer {
  public:
    Tracer() = default;
    explicit Tracer(TraceSink *sink, std::uint16_t device = 0)
        : sink_(sink), device_(device)
    {
    }

    bool enabled() const { return sink_ != nullptr; }

    void
    emit(Cycle cycle, std::uint32_t sm, std::int32_t warp, EventKind kind,
         std::uint64_t a0 = 0, std::uint64_t a1 = 0) const
    {
        if (!sink_)
            return;
        TraceEvent ev;
        ev.cycle = cycle;
        ev.sm = sm;
        ev.warp = warp;
        ev.kind = kind;
        ev.device = device_;
        ev.a0 = a0;
        ev.a1 = a1;
        sink_->emit(ev);
    }

  private:
    TraceSink *sink_ = nullptr;
    std::uint16_t device_ = 0;
};

}  // namespace bowsim::trace

#endif  // BOWSIM_TRACE_TRACE_HPP
