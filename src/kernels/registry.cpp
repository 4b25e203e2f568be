#include "src/kernels/registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/common/log.hpp"
#include "src/kernels/atm.hpp"
#include "src/kernels/bh_sort.hpp"
#include "src/kernels/bh_tree.hpp"
#include "src/kernels/cp_ds.hpp"
#include "src/kernels/hashtable.hpp"
#include "src/kernels/nw.hpp"
#include "src/kernels/syncfree.hpp"
#include "src/kernels/tsp.hpp"

namespace bowsim {

namespace {

unsigned
scaled(unsigned base, double scale)
{
    return std::max(1u, static_cast<unsigned>(std::lround(base * scale)));
}

/** Round up to the next power of two. */
unsigned
nextPow2(unsigned v)
{
    unsigned p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** One overridable field of a kernel's parameter struct. */
struct Field {
    const char *key;
    unsigned *value;
};

/**
 * Copies each override in @p params onto the field its key names. Fatal
 * on a key outside @p fields or a value the field cannot hold; the
 * message lists the accepted keys.
 */
void
applyOverrides(const std::string &kernel, const KernelParams &params,
               std::initializer_list<Field> fields)
{
    for (const auto &[key, value] : params) {
        const Field *f =
            std::find_if(fields.begin(), fields.end(),
                         [&key](const Field &c) { return key == c.key; });
        const bool fits =
            value >= 0 &&
            value <= std::int64_t{std::numeric_limits<unsigned>::max()};
        if (f != fields.end() && fits) {
            *f->value = static_cast<unsigned>(value);
            continue;
        }
        std::string accepted;
        for (const Field &c : fields)
            accepted += (accepted.empty() ? "" : " ") + std::string(c.key);
        fatal("benchmark '", kernel, "': ",
              f == fields.end() ? "unknown" : "out-of-range", " override ",
              key, "=", value, " (accepted keys: ",
              accepted.empty() ? "none" : accepted, ")");
    }
}

}  // namespace

const std::vector<std::string> &
syncKernelNames()
{
    static const std::vector<std::string> names = {
        "TB", "ST", "DS", "ATM", "HT", "TSP", "NW1", "NW2"};
    return names;
}

const std::vector<std::string> &
syncFreeKernelNames()
{
    static const std::vector<std::string> names = {"VEC", "KM",  "MS",
                                                   "HL",  "RED", "STEN"};
    return names;
}

std::unique_ptr<KernelHarness>
makeBenchmark(const std::string &name, double scale,
              const KernelParams &params)
{
    if (name == "HT") {
        // 30 CTAs x 256 threads over 128 buckets: 60 threads per lock
        // at every scale (the scale sets only the insertion count).
        HashtableParams p;
        p.insertions = scaled(12288, scale);
        p.buckets = 128;
        applyOverrides(name, params,
                       {{"insertions", &p.insertions},
                        {"buckets", &p.buckets},
                        {"ctas", &p.ctas},
                        {"threadsPerCta", &p.threadsPerCta},
                        {"delayFactor", &p.delayFactor}});
        return makeHashtable(p);
    }
    if (!params.empty()) {
        // No other kernel takes overrides. Resolve the name first, so a
        // misspelled kernel reports the known names, not the keys.
        makeBenchmark(name, scale);
        applyOverrides(name, params, {});
    }
    if (name == "ATM") {
        // 6144 threads over 250 accounts ~ the paper's 24K threads on
        // 1000 accounts.
        AtmParams p;
        p.transactions = scaled(12288, scale);
        p.accounts = 250;
        return makeAtm(p);
    }
    if (name == "TSP") {
        // Long cost evaluation keeps synchronization a tiny fraction of
        // total instructions, as in the paper (<0.03%).
        TspParams p;
        p.climbers = scaled(3000, scale);
        p.rounds = 24;
        return makeTsp(p);
    }
    if (name == "NW1") {
        NwParams p;
        p.n = scaled(160, scale);
        return makeNw(p, false);
    }
    if (name == "NW2") {
        NwParams p;
        p.n = scaled(160, scale);
        return makeNw(p, true);
    }
    if (name == "TB") {
        BhTreeParams p;
        p.bodies = scaled(6000, scale);
        return makeBhTree(p);
    }
    if (name == "ST") {
        BhSortParams p;
        p.leaves = nextPow2(scaled(4096, scale));
        return makeBhSort(p);
    }
    if (name == "DS") {
        CpDsParams p;
        p.side = scaled(48, scale);
        return makeCpDs(p);
    }
    SyncFreeParams sf;
    sf.elements = nextPow2(scaled(65536, scale));
    if (name == "VEC")
        return makeVecAdd(sf);
    if (name == "KM")
        return makeKmeansInvert(sf);
    if (name == "MS")
        return makeMergeSortPass(sf);
    if (name == "HL")
        return makeHeartWall(sf);
    if (name == "RED")
        return makeReduction(sf);
    if (name == "STEN")
        return makeStencil(sf);
    std::ostringstream known;
    for (const auto *names : {&syncKernelNames(), &syncFreeKernelNames()})
        for (const std::string &n : *names)
            known << (known.tellp() > 0 ? " " : "") << n;
    fatal("unknown benchmark '", name, "' (known: ", known.str(), ")");
}

}  // namespace bowsim
