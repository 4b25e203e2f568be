#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "src/harness/json.hpp"

namespace perfbench {

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::int64_t
SpanLog::nextId()
{
    std::lock_guard<std::mutex> lock(mu_);
    return nextId_++;
}

void
SpanLog::record(SpanRecord r)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(r));
}

std::vector<SpanRecord>
SpanLog::take()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> out;
    out.swap(spans_);
    return out;
}

Span::Span(SpanLog *log, const char *name, std::int64_t parent,
           std::int64_t point, unsigned thread)
    : log_(log), name_(name), parent_(parent), point_(point),
      thread_(thread)
{
    if (log_ != nullptr) {
        id_ = log_->nextId();
        startNs_ = log_->nowNs();
    }
    start_ = Clock::now();
}

double
Span::finish()
{
    if (done_)
        return seconds_;
    done_ = true;
    seconds_ = std::chrono::duration<double>(Clock::now() - start_).count();
    if (log_ != nullptr) {
        SpanRecord r;
        r.name = name_;
        r.startNs = startNs_;
        r.endNs = log_->nowNs();
        r.id = id_;
        r.parent = parent_;
        r.point = point_;
        r.thread = thread_;
        log_->record(std::move(r));
    }
    return seconds_;
}

std::vector<double>
selfSeconds(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::int64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    // Child intervals per parent, clipped to the parent's interval.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const SpanRecord &s : spans) {
        auto it = index.find(s.parent);
        if (it == index.end())
            continue;
        const SpanRecord &p = spans[it->second];
        const std::int64_t lo = std::max(s.startNs, p.startNs);
        const std::int64_t hi = std::min(s.endNs, p.endNs);
        if (hi > lo)
            kids[it->second].emplace_back(lo, hi);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_lo = 0;
        std::int64_t cur_hi = -1;
        for (const auto &[lo, hi] : iv) {
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        const std::int64_t dur = spans[i].endNs - spans[i].startNs;
        self[i] = static_cast<double>(dur - covered) * 1e-9;
    }
    return self;
}

std::map<std::string, double>
selfSecondsByName(const std::vector<SpanRecord> &spans)
{
    const std::vector<double> self = selfSeconds(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

bool
writeSpans(const std::string &path, const std::vector<SpanRecord> &spans)
{
    using bowsim::harness::Json;
    Json arr = Json::array();
    for (const SpanRecord &s : spans) {
        Json j = Json::object();
        j.set("name", s.name);
        j.set("start_ns", s.startNs);
        j.set("end_ns", s.endNs);
        j.set("id", s.id);
        j.set("parent", s.parent);
        j.set("point", s.point);
        j.set("thread", s.thread);
        arr.push(std::move(j));
    }
    Json doc = Json::object();
    doc.set("spans", std::move(arr));
    std::ofstream out(path);
    out << doc.dump() << "\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench
