#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Scope::Scope(Tracer *t, const char *name, int64_t job) : t_(t)
{
    if (!t_)
        return;
    Span s;
    s.name = name;
    s.parent = t_->open_.empty() ? -1 : t_->open_.back();
    s.job = job;
    index_ = int(t_->spans_.size());
    t_->open_.push_back(index_);
    s.start = Clock::now();
    t_->spans_.push_back(std::move(s));
}

Tracer::Scope::~Scope()
{
    if (!t_)
        return;
    t_->spans_[size_t(index_)].end = Clock::now();
    t_->open_.pop_back();
}

void
Tracer::Scope::setInsts(uint64_t n)
{
    if (t_)
        t_->spans_[size_t(index_)].insts = n;
}

void
Tracer::add(const char *name, Clock::time_point start, Clock::time_point end,
            int64_t job)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = open_.empty() ? -1 : open_.back();
    s.job = job;
    spans_.push_back(std::move(s));
}

std::vector<double>
Tracer::selfUs() const
{
    // Children of one parent may overlap (jobs in flight together), so
    // subtract the union of their intervals, clipped to the parent.
    std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
        kids(spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            kids[size_t(s.parent)].emplace_back(s.start, s.end);
    }
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &p = spans_[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point reach = p.start;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            b = std::min(b, p.end);
            if (b > a) {
                covered += seconds(a, b);
                reach = b;
            }
        }
        self[i] = std::max(0.0, seconds(p.start, p.end) - covered) * 1e6;
    }
    return self;
}

bool
Tracer::write(const std::string &path, const std::string &workload,
              bool append) const
{
    std::FILE *f = std::fopen(path.c_str(), append ? "a" : "w");
    if (!f)
        return false;
    const Clock::time_point t0 = spans_.empty() ? Clock::now()
                                                : spans_.front().start;
    std::vector<double> self = selfUs();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"workload\": \"%s\", \"span\": %zu, \"name\": \"%s\", "
                     "\"start_us\": %.3f, \"end_us\": %.3f, \"self_us\": %.3f, "
                     "\"parent\": %d, \"job\": %" PRId64 ", \"insts\": %" PRIu64
                     "}\n",
                     workload.c_str(), i, s.name.c_str(),
                     seconds(t0, s.start) * 1e6, seconds(t0, s.end) * 1e6,
                     self[i], s.parent, s.job, s.insts);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
