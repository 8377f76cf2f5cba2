/**
 * @file
 * Host-time tracing for the benchmark: spans recorded around the
 * benchmark's own calls into each simulator layer, and a timing
 * MemoryPort shim that counts and times every access a Machine makes.
 *
 * Nothing here is compiled into the simulator; the spans sit in the
 * benchmark's code, around public API calls.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "gp/ops.h"
#include "mem/memory_port.h"
#include "mem/memory_system.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host seconds on the steady clock since the first call. */
double now();

/** Job id of spans that belong to the one-time set-up. */
inline constexpr uint64_t kSetupJob = UINT64_MAX;

/** One timed interval of host work. */
struct Span
{
    const char *name = "";
    double start = 0;
    double end = 0;
    int parent = -1;      //!< index of the enclosing span, -1 = root
    uint64_t job = 0;     //!< job the span belongs to (kSetupJob)
    double portSeconds = 0; //!< summed MemoryPort-call time inside

    double duration() const { return end - start; }
};

/**
 * In-memory span recorder. When disabled every call is a no-op, so
 * the untraced run pays one branch per span site. Spans nest through
 * an explicit stack; they are written out only when the run ends.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled)
    {
        // Growing the span buffer mid-job would show up as a gap
        // between that job's spans.
        if (enabled_)
            spans_.reserve(size_t(1) << 18);
    }

    /** Open a span under the innermost open one. @return its index,
     * or -1 when tracing is off. */
    int begin(const char *name, uint64_t job);

    /** Close span @p id, charging @p port_seconds of shim time. */
    void end(int id, double port_seconds = 0);

    /** Durations of every span called @p name, in order. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Smallest share of a job root span ("job") that its direct
     * children cover, over all jobs; 0 when there is no job span.
     */
    double minJobCoverage() const;

    /** Write every span as one JSON object per line. */
    bool writeJsonLines(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, uint64_t job)
        : tracer_(tracer), id_(tracer.begin(name, job))
    {
    }
    ~ScopedSpan() { tracer_.end(id_, portSeconds); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Shim time spent inside this span (set before it closes). */
    double portSeconds = 0;

  private:
    Tracer &tracer_;
    int id_;
};

/** One access the shim saw, kept for the replay probes. */
struct RecordedAccess
{
    gp::Word ptr;
    gp::Access kind;
    uint8_t size;
};

/**
 * Timing MemoryPort shim in front of a bench-owned MemorySystem.
 * Each load, store and fetch is counted and timed; the times are summed
 * per job, not kept as spans. Up to a fixed number of accesses per job
 * are recorded for the translate/check replay probes.
 *
 * delayNs adds a busy-wait inside every call: the seeded-slowdown
 * self-test uses it to check that the added time is charged to mem.
 */
class TimingPort : public gp::mem::MemoryPort
{
  public:
    /// Accesses recorded per job for the replay probes.
    static constexpr size_t kRecordCap = size_t(1) << 16;

    explicit TimingPort(gp::mem::MemorySystem &inner, double delay_ns = 0)
        : inner_(inner), delayNs_(delay_ns)
    {
        recorded_.reserve(kRecordCap);
    }

    gp::mem::MemAccess portLoad(gp::Word ptr, unsigned size, uint64_t now,
                                bool elide_check = false) override;
    gp::mem::MemAccess portStore(gp::Word ptr, gp::Word value,
                                 unsigned size, uint64_t now,
                                 bool elide_check = false) override;
    gp::mem::MemAccess portFetch(gp::Word ip, uint64_t now,
                                 bool elide_check = false) override;
    void portPoke(uint64_t vaddr, gp::Word w) override;
    gp::Word portPeek(uint64_t vaddr) override;

    uint64_t calls() const { return calls_; }
    double seconds() const { return seconds_; }
    const std::vector<RecordedAccess> &recorded() const
    {
        return recorded_;
    }

  private:
    /** Close a timed call that began at @p t0. */
    void account(Clock::time_point t0, gp::Word ptr, gp::Access kind,
                 unsigned size);

    gp::mem::MemorySystem &inner_;
    double delayNs_;
    uint64_t calls_ = 0;
    double seconds_ = 0;
    std::vector<RecordedAccess> recorded_;
};

/** Mean host nanoseconds of PageTable::translateAddr over @p acc. */
double replayTranslateNs(gp::mem::MemorySystem &ms,
                         const std::vector<RecordedAccess> &acc);

/** Mean host nanoseconds of gp::checkAccess over @p acc. */
double replayCheckNs(const std::vector<RecordedAccess> &acc);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
