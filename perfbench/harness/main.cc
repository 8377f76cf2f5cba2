/**
 * @file
 * perfbench: the repository benchmark (see ../README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans FILE]
 *   perfbench --selftest determinism|slowdown
 *
 * Runs one closed-loop workload: one job at a time, each started when
 * the previous one has finished, for S host seconds. With
 * --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
 * job variants with spans and the timing shim and prints the
 * per-layer metrics. The last line of stdout is one JSON object.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans;
    std::string selftest;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload memsweep|gatecall|mesh64|"
                 "campaign --seed N --seconds S --trace 0|1 [--spans FILE]\n"
                 "       perfbench --selftest determinism|slowdown\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end || value.empty())
                usage("--seed takes a whole number");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (*end || !(a.seconds > 0) || a.seconds > 600)
                usage("--seconds takes a number in (0, 600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--spans") {
            a.spans = value;
        } else if (flag == "--selftest") {
            a.selftest = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    return a;
}

/** CPUs this process may run on (what nproc prints). */
unsigned
hostCores()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Peak resident memory of this process in MB: VmHWM of
 * /proc/self/status. getrusage's ru_maxrss is no use here, because
 * Linux carries it across exec, so it would report the launching
 * Python interpreter's peak when that was larger.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    double kib = 0;
    if (f) {
        char line[256];
        while (std::fgets(line, sizeof line, f)) {
            if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
                break;
        }
        std::fclose(f);
    }
    if (kib <= 0) {
        struct rusage ru;
        getrusage(RUSAGE_SELF, &ru);
        kib = double(ru.ru_maxrss);
    }
    return kib / 1024.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** What the report keeps of one job: a few numbers, so that the
 * bookkeeping of a long run stays small next to the simulator. */
struct JobSample
{
    float jobSeconds = 0;     //!< build, load, run and check
    float minstPerSecond = 0; //!< simulated Minst per second of run call
    uint8_t variant = 0;
    uint8_t set = 0;          //!< input set the job ran
};

/** The extra figures of a traced job. */
struct TracedSample
{
    double runSeconds = 0;
    double portSeconds = 0;
    double translateNs = 0;
    double checkNs = 0;
    uint64_t insts = 0;
    uint64_t cycles = 0;
    uint64_t portCalls = 0;
};

/// The quantile of a set's job times that stands for the set; rates
/// use 1 - kSetQuantile.
constexpr double kSetQuantile = 0.1;

/// A job this many times slower than its set's quantile counts as
/// slowed by the host.
constexpr double kSlowJob = 1.2;

/**
 * Every job and set-up a run made.
 *
 * The centre figures take, per input set, a low quantile of the set's
 * job times (a high one of its rates), then the median over the sets.
 * A set's jobs repeat one deterministic simulation, spread over the
 * whole run, so they differ only in what the host did meanwhile: on a
 * shared host, another tenant on the same physical core slows a job up
 * to twofold, in spells that come and go within a second, and the
 * share of the run they cover changes from run to run. A median over
 * jobs jumps between the fast and the slow mode as that share crosses
 * one half; the 10th percentile stays in the fast mode until spells
 * cover nine tenths of the run (CpuPlacer keeps that share down). A
 * fixed quantile estimates the same population figure however many
 * jobs a run makes, so a faster build is not favoured by making more
 * of them. The tail figure and jobs_per_s keep every job, slow spells
 * included.
 */
struct RunLog
{
    std::vector<JobSample> jobs; //!< in run order
    std::vector<TracedSample> traced;
    std::vector<double> setupSeconds; //!< in run order; the first is cold
    SimCounts first; //!< summed over the first kInputSets jobs
    double loopSeconds = 0; //!< the job loop's wall time, picks excluded
    uint64_t failed = 0;
    uint64_t picks = 0;
    double probeSpread = 1; //!< slowest over fastest CPU, worst pick

    static constexpr int kAll = -1;

    /** @p f of every job of variant @p v (of every job: kAll). */
    std::vector<double>
    of(int v, float JobSample::*f) const
    {
        std::vector<double> out;
        for (const JobSample &j : jobs) {
            if (v == kAll || j.variant == v)
                out.push_back(double(j.*f));
        }
        return out;
    }

    /** The median over input sets of quantile @p q of @p f over the
     * set's jobs of variant @p v. */
    double
    setQuantile(int v, float JobSample::*f, double q) const
    {
        std::vector<std::vector<double>> bySet(kInputSets);
        for (const JobSample &j : jobs) {
            if (v == kAll || j.variant == v)
                bySet[j.set].push_back(double(j.*f));
        }
        std::vector<double> perSet;
        for (const std::vector<double> &x : bySet) {
            if (!x.empty())
                perSet.push_back(quantile(x, q));
        }
        return median(perSet);
    }

    /** Share of the jobs more than kSlowJob times slower than their
     * variant and input set's kSetQuantile job time. */
    double
    slowShare() const
    {
        std::map<std::pair<int, unsigned>, std::vector<double>> bySet;
        for (const JobSample &j : jobs)
            bySet[{j.variant, j.set}].push_back(j.jobSeconds);
        size_t slow = 0;
        for (const auto &[key, x] : bySet) {
            const double q = quantile(x, kSetQuantile);
            for (double t : x)
                slow += t > kSlowJob * q;
        }
        return ratio(double(slow), double(jobs.size()));
    }

    /** Simulated Minst per run-call second. */
    double
    rate(int v) const
    {
        return setQuantile(v, &JobSample::minstPerSecond, 1 - kSetQuantile);
    }

    /** Job wall seconds. */
    double
    jobSeconds(int v) const
    {
        return setQuantile(v, &JobSample::jobSeconds, kSetQuantile);
    }
};

/**
 * Keeps the benchmark on the quietest of the CPUs it may use.
 *
 * On a shared host a virtual CPU runs up to twofold slower than its
 * peers while another tenant is busy on the same physical core, in
 * spells of a second to minutes, and the kernel does not move a busy
 * thread off it. pick() times a short fixed job on each allowed CPU
 * and pins the calling thread to the fastest @c width of them;
 * simulator threads started later inherit the mask.
 */
class CpuPlacer
{
  public:
    explicit CpuPlacer(unsigned width) : width_(width)
    {
        cpu_set_t set;
        if (sched_getaffinity(0, sizeof set, &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set))
                    allowed_.push_back(c);
            }
        }
    }

    /** Pick and pin. @return the slowest CPU's probe time over the
     * fastest's (1 when there is nothing to choose). */
    double
    pick()
    {
        if (allowed_.size() <= width_)
            return 1;
        std::vector<std::pair<double, int>> speed;
        for (int c : allowed_) {
            pin({c});
            const double a = hostProbeSeconds();
            speed.push_back({std::min(a, hostProbeSeconds()), c});
        }
        std::sort(speed.begin(), speed.end());
        std::vector<int> chosen;
        for (unsigned k = 0; k < width_; ++k)
            chosen.push_back(speed[k].second);
        pin(chosen);
        return ratio(speed.back().first, speed.front().first);
    }

  private:
    static void
    pin(const std::vector<int> &cpus)
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        for (int c : cpus)
            CPU_SET(c, &set);
        sched_setaffinity(0, sizeof set, &set);
    }

    unsigned width_;
    std::vector<int> allowed_;
};

/// Jobs every run makes at least, so the tail always has ten samples
/// beyond it.
constexpr uint64_t kMinJobs = 100;

/// Job samples the log holds room for from the start: more than a
/// 60 s run of the shortest (campaign) jobs makes.
constexpr size_t kReservedJobs = size_t(1) << 18;

/// The percentile job_ms_tail reports. It is fixed, not the highest one
/// a run's sample count allows, so that a faster build, which makes
/// more jobs, is not measured at a higher percentile.
constexpr double kTailPercentile = 90;

/// Set-ups timed before the first job, in bursts with a CPU pick
/// before each; setup_s is their median.
constexpr int kSetupBursts = 5;
constexpr int kSetupsPerBurst = 9;

/// Host seconds after which the CPU is picked again in any case.
constexpr double kPickInterval = 2.0;

/// A job kSlowJob times slower than its variant and input set's
/// fastest so far says the CPU has slowed down: pick again at once,
/// while the picks have taken less than this share of the job time.
constexpr double kPickBudget = 0.2;

/**
 * Set the workload up kSetupBursts x kSetupsPerBurst times, then run
 * jobs in a closed loop for @p seconds (and at least kMinJobs jobs), in
 * whole rounds of kInputSets jobs, one per input set, so every run
 * weighs every input set alike. Round r runs variant r mod
 * variants.size(), so every variant sees every input set, and the
 * simulated counts summed over the first round (variant 0) are a pure
 * function of the seed. The CPU picks between jobs count toward
 * @p seconds but are left out of every timing.
 */
RunLog
closedLoop(Workload &w, double seconds,
           const std::vector<JobOptions> &variants, Tracer &tracer)
{
    RunLog log;
    // The log is made resident in full before the first job, so that
    // its share of peak_rss_mb does not depend on how many jobs a run
    // makes (up to kReservedJobs).
    log.jobs.resize(kReservedJobs);
    log.jobs.clear();
    CpuPlacer placer(w.hostThreads());
    double pickSeconds = 0, lastPick = 0;
    auto pick = [&] {
        const double t0 = now();
        log.probeSpread = std::max(log.probeSpread, placer.pick());
        ++log.picks;
        lastPick = now();
        pickSeconds += lastPick - t0;
    };
    for (int b = 0; b < kSetupBursts; ++b) {
        pick();
        for (int k = 0; k < kSetupsPerBurst; ++k) {
            const double t0 = now();
            w.setup(tracer);
            log.setupSeconds.push_back(now() - t0);
        }
    }

    Tracer off(false);
    pickSeconds = 0;
    bool slowed = false;
    // Fastest job so far per variant and input set; only steers picks.
    std::vector<double> fastest(variants.size() * kInputSets, 1e300);
    for (uint64_t i = 0;
         i < kMinJobs || i % kInputSets ||
         log.loopSeconds + pickSeconds < seconds;
         ++i) {
        if (now() - lastPick >= kPickInterval ||
            (slowed && pickSeconds < kPickBudget * log.loopSeconds))
            pick();
        const int v = int((i / kInputSets) % variants.size());
        const JobOptions &opts = variants[size_t(v)];
        const double slot0 = now();
        const JobResult r = w.runJob(i, opts, opts.traced ? tracer : off);
        log.loopSeconds += now() - slot0;
        double &best = fastest[size_t(v) * kInputSets + i % kInputSets];
        slowed = r.jobSeconds > kSlowJob * best;
        best = std::min(best, r.jobSeconds);
        if (!r.ok) {
            if (log.failed < 5)
                std::fprintf(stderr, "perfbench: %s job %llu failed: %s\n",
                             w.name(), (unsigned long long)i,
                             r.error.c_str());
            ++log.failed;
        }
        if (i < kInputSets)
            log.first.add(r.sim);
        const double rate =
            r.runSeconds > 0 ? double(r.sim.insts) / r.runSeconds / 1e6 : 0;
        log.jobs.push_back({float(r.jobSeconds), float(rate), uint8_t(v),
                            uint8_t(i % kInputSets)});
        if (opts.traced)
            log.traced.push_back({r.runSeconds, r.portSeconds, r.translateNs,
                                  r.checkNs, r.sim.insts, r.sim.cycles,
                                  r.sim.portCalls});
    }
    return log;
}

void
printHeader(const Args &a, const Workload &w)
{
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
                "host_threads=%u nproc=%u\n",
                w.name(), (unsigned long long)a.seed, a.seconds,
                int(a.trace), w.hostThreads(), hostCores());
    std::printf("perfbench: times are host wall time; sim_* and counts "
                "are simulated. The model is unvalidated against\n"
                "perfbench: hardware, so no error figure is reported. "
                "Modelled caches start empty in every job.\n");
}

int
endToEnd(const Args &a, Workload &w)
{
    Tracer off(false);
    const RunLog log = closedLoop(w, a.seconds, {JobOptions{}}, off);
    const double peakRss = peakRssMb(); // before the report's own copies

    std::vector<double> jobMs = log.of(RunLog::kAll, &JobSample::jobSeconds);
    for (double &ms : jobMs)
        ms *= 1e3;
    const size_t n = jobMs.size();
    const double p = kTailPercentile;
    const size_t beyond = samplesBeyond(n, p / 100.0);
    std::printf("perfbench: samples=%zu job_ms_tail=p%g (%zu samples "
                "beyond it) failed_frac=%.6g\n",
                n, p, beyond, ratio(double(log.failed), double(n)));
    std::printf("perfbench: setups=%zu setup_cold_s=%.6g cpu_picks=%llu "
                "worst_cpu_spread=%.3f slow_job_share=%.3f\n",
                log.setupSeconds.size(), log.setupSeconds.front(),
                (unsigned long long)log.picks, log.probeSpread,
                log.slowShare());

    const std::vector<Metric> metrics = {
        {"sim_minst_s", log.rate(RunLog::kAll), "Minst/s"},
        {"jobs_per_s", ratio(double(n), log.loopSeconds), "1/s"},
        {"job_ms_p50", log.jobSeconds(RunLog::kAll) * 1e3, "ms"},
        {"job_ms_tail", quantile(jobMs, p / 100.0), "ms"},
        {"setup_s", median(log.setupSeconds), "s"},
        {"peak_rss_mb", peakRss, "MB"},
        {"sim_ipc", ratio(double(log.first.insts), double(log.first.cycles)),
         "inst/cycle"},
    };
    printReport(log.failed == 0, n, log.failed, metrics);
    return 0;
}

/** Median duration in ms of the spans called @p name. */
double
spanMs(const Tracer &t, const char *name)
{
    return median(t.durations(name)) * 1e3;
}

int
perLayer(const Args &a, Workload &w)
{
    Tracer tracer(true);

    // Variant 0 is the traced job; the others give the comparisons
    // the per-layer table needs: the untraced rate, and per workload
    // the profiler armed, fast mode, or one host thread.
    const std::string name = w.name();
    constexpr int kTraced = 0, kPlain = 1, kAbsent = -2;
    std::vector<JobOptions> variants(2);
    variants[kTraced].traced = true;
    auto addVariant = [&variants](JobOptions o) {
        variants.push_back(o);
        return int(variants.size()) - 1;
    };
    int profiled = kAbsent, fast = kAbsent, oneThread = kAbsent;
    if (name == "memsweep") {
        profiled = addVariant({.profiled = true});
        fast = addVariant({.fast = true});
    } else if (name == "mesh64") {
        oneThread = addVariant({.threads = 1});
    }
    const RunLog log = closedLoop(w, a.seconds, variants, tracer);
    if (!a.spans.empty() && !tracer.writeJsonLines(a.spans))
        std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans.c_str());

    const SimCounts &s = log.first;
    auto rate = [&](int v) { return log.rate(v); };
    auto jobS = [&](int v) { return log.jobSeconds(v); };

    // Per traced job: run-span time, shim time and instructions.
    std::vector<double> runS, selfS, memS, translateNs, checkNs;
    double selfSum = 0, portSum = 0;
    uint64_t tracedInsts = 0, portCalls = 0, tracedNodeCycles = 0;
    for (const TracedSample &j : log.traced) {
        runS.push_back(j.runSeconds);
        selfS.push_back(j.runSeconds - j.portSeconds);
        memS.push_back(j.portSeconds);
        selfSum += j.runSeconds - j.portSeconds;
        portSum += j.portSeconds;
        portCalls += j.portCalls;
        tracedInsts += j.insts;
        tracedNodeCycles += j.cycles;
        if (j.portCalls) {
            translateNs.push_back(j.translateNs);
            checkNs.push_back(j.checkNs);
        }
    }
    const bool isaRun = !tracer.durations("isa.run").empty();
    const bool nocRun = !tracer.durations("noc.run").empty();
    const double noc1 = rate(oneThread);

    const uint64_t n = log.jobs.size();
    std::printf("perfbench: samples=%llu traced_jobs=%zu span_coverage=%.4f\n",
                (unsigned long long)n, runS.size(), tracer.minJobCoverage());

    const std::vector<Metric> metrics = {
        {"isa.run_s", isaRun ? median(runS) : 0, "s"},
        {"isa.self_s", isaRun ? median(selfS) : 0, "s"},
        {"isa.ns_per_inst", isaRun ? ratio(selfSum * 1e9, double(tracedInsts))
                                   : 0,
         "ns"},
        {"isa.idle_cluster_frac",
         ratio(double(s.emptyClusterCycles), double(s.clusterCycles)),
         "fraction"},
        {"isa.predecode_hit_ratio",
         ratio(double(s.predecodeHits),
               double(s.predecodeHits + s.predecodeMisses)),
         "fraction"},
        {"isa.assemble_ms", spanMs(tracer, "isa.assemble"), "ms"},
        {"isa.load_ms", spanMs(tracer, "isa.load"), "ms"},
        {"isa.build_ms", spanMs(tracer, "isa.build"), "ms"},
        {"isa.fast_minst_s", rate(fast), "Minst/s"},
        {"mem.port_calls", double(s.portCalls), "count"},
        {"mem.self_s", median(memS), "s"},
        {"mem.ns_per_access", ratio(portSum * 1e9, double(portCalls)), "ns"},
        {"mem.translate_ns", median(translateNs), "ns"},
        {"mem.cache_hit_ratio",
         ratio(double(s.cacheHits), double(s.cacheHits + s.cacheMisses)),
         "fraction"},
        {"mem.tlb_miss_ratio",
         ratio(double(s.tlbMisses), double(s.tlbHits + s.tlbMisses)),
         "fraction"},
        {"mem.bank_conflict_stalls", double(s.bankConflictStalls), "count"},
        {"mem.ext_port_stalls", double(s.extPortStalls), "count"},
        {"mem.mapped_pages", double(s.mappedPages), "count"},
        {"gp.check_ns", median(checkNs), "ns"},
        {"gp.ptr_ops_per_inst", ratio(double(s.ptrOps), double(s.insts)),
         "ops/inst"},
        {"os.build_ms", spanMs(tracer, "os.build"), "ms"},
        {"os.gate_crossings", double(s.gateCrossings), "count"},
        {"os.domain_switches", double(s.domainSwitches), "count"},
        {"noc.run_s", nocRun ? median(runS) : 0, "s"},
        {"noc.build_ms", spanMs(tracer, "noc.build"), "ms"},
        {"noc.ns_per_node_cycle",
         nocRun ? ratio(selfSum * 1e9, double(tracedNodeCycles)) : 0, "ns"},
        {"noc.shard_speedup", noc1 > 0 ? ratio(rate(kPlain), noc1) : 0,
         "ratio"},
        {"noc.shard_imbalance",
         s.shardBusySum ? ratio(double(s.shardBusyMax) * double(s.shards),
                                double(s.shardBusySum))
                        : 0,
         "ratio"},
        {"noc.messages", double(s.nocMessages), "count"},
        {"noc.link_stall_cycles", double(s.nocLinkStalls), "count"},
        {"noc.remote_misses", double(s.nocRemoteMisses), "count"},
        {"fault.golden_ms", spanMs(tracer, "fault.golden"), "ms"},
        {"fault.run_one_ms", spanMs(tracer, "fault.run_one"), "ms"},
        {"fault.injections", double(s.injections), "count"},
        {"fault.ecc_corrected", double(s.eccCorrected), "count"},
        {"verify.verify_ms", spanMs(tracer, "verify.verify"), "ms"},
        {"sim.profile_overhead", ratio(jobS(profiled), jobS(kPlain)),
         "ratio"},
        {"trace.overhead", ratio(rate(kTraced), rate(kPlain)), "ratio"},
        {"trace.span_coverage", tracer.minJobCoverage(), "fraction"},
    };
    printReport(log.failed == 0, n, log.failed, metrics);
    return 0;
}

// ------------------------------------------------------------- self-tests

/** Two same-seed runs of every workload give identical simulated
 * counts; mesh64 gives the same signature at 1 and N host threads. */
int
selftestDeterminism()
{
    constexpr uint64_t kSeed = 7;
    int failures = 0;
    for (const std::string &name : workloadNames()) {
        SimCounts runs[2];
        for (SimCounts &counts : runs) {
            auto w = makeWorkload(name, kSeed, hostCores());
            Tracer off(false);
            w->setup(off);
            for (uint64_t i = 0; i < kInputSets; ++i)
                counts.add(w->runJob(i, JobOptions{}, off).sim);
        }
        const bool same = runs[0].insts == runs[1].insts &&
                          runs[0].cycles == runs[1].cycles &&
                          runs[0].signature == runs[1].signature;
        std::printf("determinism %-9s insts=%llu cycles=%llu sim_ipc=%.6f "
                    "%s\n",
                    name.c_str(), (unsigned long long)runs[0].insts,
                    (unsigned long long)runs[0].cycles,
                    ratio(double(runs[0].insts), double(runs[0].cycles)),
                    same ? "ok" : "MISMATCH");
        failures += !same;
    }

    auto mesh = makeWorkload("mesh64", kSeed, hostCores());
    Tracer off(false);
    mesh->setup(off);
    JobOptions one;
    one.threads = 1;
    for (uint64_t i = 0; i < 4; ++i) {
        const uint64_t a = mesh->runJob(i, one, off).sim.signature;
        const uint64_t b = mesh->runJob(i, JobOptions{}, off).sim.signature;
        std::printf("determinism mesh64 job %llu signature t1=%016llx "
                    "t%u=%016llx %s\n",
                    (unsigned long long)i, (unsigned long long)a,
                    mesh->hostThreads(), (unsigned long long)b,
                    a == b ? "ok" : "MISMATCH");
        failures += a != b;
    }
    return failures ? 1 : 0;
}

/**
 * A busy-wait seeded into the timing shim must show up in mem.self_s,
 * not in isa.self_s.
 */
int
selftestSlowdown()
{
    // The delay is large next to the host's run-to-run noise in isa
    // time, and the delayed and plain jobs alternate, so a change in
    // host speed during the test hits both alike.
    constexpr double kDelayNs = 1000;
    constexpr int kJobs = 3;
    auto w = makeWorkload("memsweep", 7, hostCores());
    Tracer off(false);
    w->setup(off);

    // The traced report's figures: per job, mem.self_s is the shim
    // time and isa.self_s the run time minus it; medians over jobs.
    std::vector<double> isa[2], mem[2];
    uint64_t calls = 0;
    for (int j = 0; j < 2 * kJobs; ++j) {
        const int slow = j % 2;
        Tracer tracer(true);
        JobOptions opts;
        opts.traced = true;
        opts.delayNs = slow ? kDelayNs : 0;
        const JobResult r = w->runJob(uint64_t(j / 2), opts, tracer);
        isa[slow].push_back(r.runSeconds - r.portSeconds);
        mem[slow].push_back(r.portSeconds);
        calls = r.sim.portCalls;
    }
    const double isaSelf[2] = {median(isa[0]), median(isa[1])};
    const double memSelf[2] = {median(mem[0]), median(mem[1])};
    const double added = double(calls) * kDelayNs * 1e-9;
    const double dMem = memSelf[1] - memSelf[0];
    const double dIsa = isaSelf[1] - isaSelf[0];
    const char *named = dMem > dIsa ? "mem" : "isa";
    std::printf("slowdown: added %.4f s per job (%llu calls x %g ns); "
                "mem.self_s +%.4f s, isa.self_s %+.4f s; regressed layer: "
                "%s\n",
                added, (unsigned long long)calls, kDelayNs, dMem, dIsa,
                named);
    const bool ok = std::string(named) == "mem" && dMem >= 0.8 * added &&
                    dIsa < 0.25 * dMem;
    std::printf("slowdown %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args a = parseArgs(argc, argv);
    if (a.selftest == "determinism")
        return selftestDeterminism();
    if (a.selftest == "slowdown")
        return selftestSlowdown();
    if (!a.selftest.empty())
        usage("unknown self-test");

    auto w = makeWorkload(a.workload, a.seed, hostCores());
    if (!w)
        usage("unknown workload");
    printHeader(a, *w);
    return a.trace ? perLayer(a, *w) : endToEnd(a, *w);
}
