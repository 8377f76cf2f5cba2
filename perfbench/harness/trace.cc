#include "trace.h"

#include <cstdio>
#include <map>

namespace perfbench {

double
now()
{
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

int
Tracer::begin(const char *name, uint64_t job)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.job = job;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = now();
    spans_.push_back(s);
    open_.push_back(int(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int id, double port_seconds)
{
    if (id < 0)
        return;
    Span &s = spans_[size_t(id)];
    s.end = now();
    s.portSeconds = port_seconds;
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (name == s.name)
            out.push_back(s.duration());
    }
    return out;
}

double
Tracer::minJobCoverage() const
{
    std::map<int, double> covered;
    for (const Span &s : spans_) {
        if (s.parent >= 0 &&
            std::string("job") == spans_[size_t(s.parent)].name)
            covered[s.parent] += s.duration();
    }
    double worst = 0;
    bool any = false;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (std::string("job") != spans_[i].name)
            continue;
        const double d = spans_[i].duration();
        const double share = d > 0 ? covered[int(i)] / d : 1.0;
        worst = any ? std::min(worst, share) : share;
        any = true;
    }
    return worst;
}

bool
Tracer::writeJsonLines(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                     "\"job\": %lld, \"start_s\": %.9f, \"end_s\": %.9f, "
                     "\"port_s\": %.9f}\n",
                     i, s.name, s.parent,
                     s.job == kSetupJob ? -1LL : (long long)s.job, s.start,
                     s.end, s.portSeconds);
    }
    return std::fclose(f) == 0;
}

void
TimingPort::account(Clock::time_point t0, gp::Word ptr, gp::Access kind,
                    unsigned size)
{
    Clock::time_point t1 = Clock::now();
    if (delayNs_ > 0) {
        const auto until =
            t1 + std::chrono::nanoseconds(int64_t(delayNs_));
        while (t1 < until)
            t1 = Clock::now();
    }
    seconds_ += std::chrono::duration<double>(t1 - t0).count();
    ++calls_;
    if (recorded_.size() < kRecordCap)
        recorded_.push_back({ptr, kind, uint8_t(size)});
}

gp::mem::MemAccess
TimingPort::portLoad(gp::Word ptr, unsigned size, uint64_t now,
                     bool elide_check)
{
    const auto t0 = Clock::now();
    gp::mem::MemAccess a = inner_.portLoad(ptr, size, now, elide_check);
    account(t0, ptr, gp::Access::Load, size);
    return a;
}

gp::mem::MemAccess
TimingPort::portStore(gp::Word ptr, gp::Word value, unsigned size,
                      uint64_t now, bool elide_check)
{
    const auto t0 = Clock::now();
    gp::mem::MemAccess a =
        inner_.portStore(ptr, value, size, now, elide_check);
    account(t0, ptr, gp::Access::Store, size);
    return a;
}

gp::mem::MemAccess
TimingPort::portFetch(gp::Word ip, uint64_t now, bool elide_check)
{
    const auto t0 = Clock::now();
    gp::mem::MemAccess a = inner_.portFetch(ip, now, elide_check);
    account(t0, ip, gp::Access::InstFetch, 8);
    return a;
}

void
TimingPort::portPoke(uint64_t vaddr, gp::Word w)
{
    inner_.portPoke(vaddr, w);
}

gp::Word
TimingPort::portPeek(uint64_t vaddr)
{
    return inner_.portPeek(vaddr);
}

namespace {

/// Passes over the recorded accesses per probe: enough work for the
/// steady clock to resolve it well.
constexpr int kReplayPasses = 4;

/// Receives each probe's result so the timed loop cannot be elided.
volatile uint64_t probeSink = 0;

} // namespace

double
replayTranslateNs(gp::mem::MemorySystem &ms,
                  const std::vector<RecordedAccess> &acc)
{
    if (acc.empty())
        return 0;
    gp::mem::PageTable &pt = ms.pageTable();
    uint64_t sink = 0;
    const double t0 = now();
    for (int pass = 0; pass < kReplayPasses; ++pass) {
        for (const RecordedAccess &a : acc)
            sink += pt.translateAddr(a.ptr.addr()).value_or(0);
    }
    const double dt = now() - t0;
    probeSink = sink;
    return dt * 1e9 / double(acc.size() * kReplayPasses);
}

double
replayCheckNs(const std::vector<RecordedAccess> &acc)
{
    if (acc.empty())
        return 0;
    unsigned faults = 0;
    const double t0 = now();
    for (int pass = 0; pass < kReplayPasses; ++pass) {
        for (const RecordedAccess &a : acc)
            faults += gp::checkAccess(a.ptr, a.kind, a.size) !=
                      gp::Fault::None;
    }
    const double dt = now() - t0;
    probeSink = faults;
    return dt * 1e9 / double(acc.size() * kReplayPasses);
}

} // namespace perfbench
