/**
 * @file
 * The four benchmark workloads. Each builds a fresh simulated machine
 * per job (so the modelled caches start empty, as in a user's run),
 * runs it, and checks its outputs against expectations computed in
 * oracle.cc, which shares no code with the simulator.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/**
 * Distinct input sets per seed; job i runs set i % kInputSets. The
 * simulated counts of a run are summed over its first kInputSets
 * jobs, so they are a pure function of the seed.
 */
inline constexpr uint64_t kInputSets = 16;

/** Simulated (deterministic) counts of one job. */
struct SimCounts
{
    uint64_t insts = 0;
    uint64_t cycles = 0;        //!< simulated cycles (x nodes: mesh64)
    uint64_t clusterCycles = 0; //!< clusters x cycles, summed
    uint64_t emptyClusterCycles = 0; //!< no runnable thread to issue
    uint64_t predecodeHits = 0;
    uint64_t predecodeMisses = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t tlbHits = 0;
    uint64_t tlbMisses = 0;
    uint64_t bankConflictStalls = 0;
    uint64_t extPortStalls = 0;
    uint64_t mappedPages = 0;
    uint64_t portCalls = 0;     //!< timing-shim calls (traced memsweep)
    uint64_t ptrOps = 0;        //!< gp pointer ops + access checks
    uint64_t gateCrossings = 0;
    uint64_t domainSwitches = 0;
    uint64_t nocMessages = 0;
    uint64_t nocLinkStalls = 0;
    uint64_t nocRemoteMisses = 0;
    uint64_t injections = 0;
    uint64_t eccCorrected = 0;
    uint64_t shardBusyMax = 0;  //!< busiest shard's busy cycles
    uint64_t shardBusySum = 0;
    uint64_t shards = 0;
    uint64_t signature = 0;     //!< order-sensitive digest of the job

    void add(const SimCounts &o);
};

/** How one job is run. */
struct JobOptions
{
    bool traced = false;   //!< record spans; memsweep uses the shim
    double delayNs = 0;    //!< busy-wait per shim call (self-test)
    bool profiled = false; //!< memsweep: run with the Profiler armed
    bool fast = false;     //!< memsweep: MachineConfig::fastMode
    unsigned threads = 0;  //!< mesh64 host threads (0 = workload's)
};

/** Outcome and host timings of one job. */
struct JobResult
{
    bool ok = true;
    std::string error;      //!< why the output check failed
    SimCounts sim;
    double jobSeconds = 0;  //!< set-up + run + output check
    double runSeconds = 0;  //!< the simulation call alone
    // Traced memsweep jobs only: shim time and the replay probes.
    double portSeconds = 0;
    double translateNs = 0;
    double checkNs = 0;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Host threads the workload simulates with. */
    virtual unsigned hostThreads() const { return 1; }

    /**
     * One-time set-up before the first simulated cycle: assemble,
     * verify, and build and load the first job (which is then
     * discarded). Spans go to @p tracer.
     */
    virtual void setup(Tracer &tracer) = 0;

    /** Build, run and check job @p index. */
    virtual JobResult runJob(uint64_t index, const JobOptions &opts,
                             Tracer &tracer) = 0;
};

/**
 * Host seconds of one short, fixed simulator job, to compare the
 * speed of the host's CPUs. Exits if the job's output is wrong.
 */
double hostProbeSeconds();

/** @return the workload called @p name seeded by @p seed, or null. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, unsigned nproc);

/** Names of every workload, in report order. */
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
