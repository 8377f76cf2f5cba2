/**
 * @file
 * The multithreaded MAP-like machine (paper §3, Fig. 5).
 *
 * The machine comprises several clusters, each with a small set of
 * hardware thread slots. Every cycle each cluster selects one ready
 * thread round-robin and issues one instruction for it — cycle-by-cycle
 * multithreading across *different protection domains*, which is the
 * scenario the paper designs for. All clusters share the banked
 * virtually-addressed cache through the MemorySystem, whose bank and
 * external-port contention model supplies the Fig. 5 behaviour.
 *
 * Simplifications vs. the real MAP (documented in DESIGN.md): each
 * cluster issues one operation per cycle rather than a 3-wide LIW
 * group, and there is no floating-point unit. Neither affects the
 * protection mechanisms under study.
 */

#ifndef GP_ISA_MACHINE_H
#define GP_ISA_MACHINE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gp/fault.h"
#include "gp/word.h"
#include "isa/elide.h"
#include "isa/inst.h"
#include "isa/thread.h"
#include "mem/fast_port.h"
#include "mem/memory_system.h"
#include "sim/stats.h"

namespace gp::isa {

/** Machine-level configuration. */
struct MachineConfig
{
    unsigned clusters = 4;          //!< MAP has 4 clusters
    unsigned threadsPerCluster = 4; //!< 4 user thread slots each
    /**
     * Instructions a cluster may issue per cycle, each from a
     * distinct ready thread. The real MAP issues a 3-wide LIW group
     * from ONE thread; issuing from several threads instead exercises
     * the same function-unit and memory-port pressure without
     * requiring a bundling compiler, and is the documented
     * approximation (DESIGN.md). Default 1 = the simple model.
     */
    unsigned issueWidth = 1;
    mem::MemConfig mem;             //!< shared memory system
    uint64_t mulLatency = 3;        //!< integer multiply latency
    uint64_t faultTrapCycles = 50;  //!< software fault-handler cost

    /**
     * Watchdog cycle budget: when nonzero, the machine trips after
     * this many total cycles, converting a runaway/livelocked run
     * into structured WatchdogTimeout faults on every live thread
     * (plus a flight-recorder dump). 0 = no budget watchdog.
     */
    uint64_t watchdogCycles = 0;
    /**
     * Quiescence watchdog: when nonzero, trip if threads remain
     * live but no instruction has issued for this many consecutive
     * cycles — the signature of a hang (e.g. a thread stalled
     * forever on a NoC request that was dropped). A thread stalled
     * to a *finite* future cycle (a long retransmission backoff) or
     * parked on an in-flight split transaction never trips it, no
     * matter the window: only hung-forever stalls (UINT64_MAX) and
     * orphaned parks (markDeferredOrphans()) count as quiescent.
     * 0 = no quiescence watchdog.
     */
    uint64_t watchdogQuiescence = 0;

    /**
     * Verifier-driven check elision (gpsim --elide-checks=verified):
     * consult registered ElideProofs at predecode time and run the
     * unchecked datapath for instructions proven never to fault
     * (docs/VERIFIER.md "Proof export & check elision"). Off by
     * default; with no registered proof the machine behaves exactly
     * as before even when enabled. Fault injection and an installed
     * software fault handler re-arm full checks unconditionally.
     */
    bool elideChecks = false;

    /**
     * The embedding engine ticks the FaultInjector itself (sharded
     * mesh: one central tick per simulated cycle at the epoch
     * barrier, so draw order is identical for any host-thread
     * count). When set, step() does not tick the injector. The
     * default (false) keeps today's per-machine tick.
     */
    bool externalInjectorTick = false;

    /**
     * Functional-only execution (gpsim --fast): run instructions
     * against a zero-latency FastPort instead of the timed memory
     * system. Architectural results (registers, faults, memory image)
     * are identical to a timed run; simulated cycle counts are
     * meaningless and must never be compared against timing baselines
     * — the mode exists for campaigns over program *behaviour* and
     * the differential harness. Requires the owning constructor, no
     * ECC, and an unarmed FaultInjector (enforced fatally).
     */
    bool fastMode = false;
};

/** What a software fault handler tells the machine to do next. */
enum class FaultAction : uint8_t
{
    Terminate, //!< leave the thread Faulted (default behaviour)
    Retry,     //!< re-issue the faulting instruction (cause repaired)
    Resume,    //!< continue at whatever IP the handler installed
};

/**
 * Software fault handler, modelling the M-Machine's event-handling
 * code: invoked when a thread faults, it may repair state (remap a
 * page, patch a stale pointer register) and resume the thread. The
 * configured faultTrapCycles are charged to the thread either way.
 */
using FaultHandler =
    std::function<FaultAction(Thread &, const FaultRecord &)>;

/**
 * Instruction-trace hook: invoked after each instruction is decoded
 * and about to execute. For debuggers and the gpsim --trace flag;
 * adds no cost when unset.
 */
using TraceHook =
    std::function<void(const Thread &, const Inst &, uint64_t cycle)>;

/** The full processor + memory system. */
class Machine
{
  public:
    /** Construct with an internally-owned MemorySystem (config.mem). */
    explicit Machine(const MachineConfig &config = MachineConfig{});

    /**
     * Construct against an external memory port — e.g. one node of
     * the multicomputer (noc::NodeMemory). The port must outlive the
     * machine; config.mem is ignored.
     */
    Machine(const MachineConfig &config, mem::MemoryPort &port);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Start a thread at the given instruction pointer in the first free
     * slot (least-loaded cluster first).
     * @return the thread, or nullptr if every slot is occupied.
     */
    Thread *spawn(Word entry_ip);

    /**
     * Start a thread on a specific cluster. The returned thread may be
     * set up (registers, a stall) until the next cycle runs; change it
     * later only through threads(), so the wake cache sees it.
     */
    Thread *spawnOnCluster(unsigned cluster, Word entry_ip);

    /**
     * Advance the machine by one cycle: step the clusters whose cached
     * wake has come (every cluster while the profiler is armed),
     * charge the others one idle cluster-cycle each, stalled or empty,
     * then the per-cycle tail (cycle count, injector and profiler
     * ticks, watchdog). The only code that executes a cycle: run(),
     * advance() and the sharded engine all come through here. A plain
     * step() loop skips no cycle, so it is the reference run() is
     * tested against.
     */
    void step();

    /**
     * Run until every thread has halted or faulted, or until max_cycles
     * elapse. Idle stretches are skipped with skipIdleCycles(), so
     * cycles and stats match a plain step() loop exactly.
     * @return the number of cycles executed.
     */
    uint64_t run(uint64_t max_cycles = 1'000'000);

    /**
     * run() without its cycle-limit warning, for callers that drive
     * the machine in bounded batches (os::Scheduler). The event-driven
     * loop: step() a cycle while some cluster's cached wake has come,
     * else skipIdleCycles() to the next wake.
     */
    uint64_t advance(uint64_t max_cycles);

    /**
     * Idle-cycle fast-forward. When no Ready thread can issue at the
     * current cycle, jump straight to the earliest wake-up (the
     * minimum of the per-cluster wake cache, rebuilt first if threads
     * were changed from outside), capped at @p limit and at the
     * cycles where the budget or quiescence watchdog would trip.
     * Charges in bulk exactly what the skipped step() calls would
     * have: cycles and idle cluster-cycles, stalled or empty per
     * cluster (no thread changes state while nothing issues, so each
     * cluster's class holds for the whole stretch); then runs the
     * watchdog check the last skipped cycle would have run. Skips
     * nothing while the profiler is armed or while this machine ticks
     * an armed fault injector itself, since both observe every cycle.
     * Executes no instruction: step() is the only code that runs one.
     * @return the number of cycles skipped.
     */
    uint64_t skipIdleCycles(uint64_t limit);

    /**
     * @return true when no thread is Ready or Pending. Reads two
     * cached counts (clusters with a Ready thread, parked threads),
     * not the slots, unless threads were changed from outside since
     * the last cycle. Inline: advance() tests it every cycle.
     */
    bool
    allDone() const
    {
        // Pending threads (parked on a cross-shard split transaction)
        // are live: the epoch barrier will resume them.
        return wakesStale_ ? scanDone()
                           : parked_ == 0 && readyClusters_ == 0;
    }

    /**
     * Deliver the outcome of a deferred cross-shard access (sharded
     * mesh engine, epoch barrier). Finds the parked instruction by
     * @p ticket, unparks its thread, and finishes it through the
     * synchronous path's own code: finishFetch() for a fetch,
     * completeMemOp() for a load or store.
     */
    void completeDeferred(uint64_t ticket, const mem::MemAccess &acc);

    /** @return true while any split transaction is outstanding. */
    bool hasDeferred() const { return !deferred_.empty(); }

    /**
     * Mark every outstanding split transaction as orphaned: its
     * completion will never arrive (the sharded engine found it
     * undeliverable — e.g. the exchange dropped the op of a dead
     * node). Orphaned parks stop vetoing the quiescence watchdog,
     * so a park that never completes still trips it; a completion
     * that does arrive later for an orphaned ticket is still
     * delivered normally.
     */
    void markDeferredOrphans();

    /**
     * External watchdog trip (sharded-mesh distributed watchdog):
     * convert this machine's live threads into WatchdogTimeout
     * faults exactly as an internal trip would. No-op if a watchdog
     * already fired.
     */
    void forceWatchdogTrip(const char *why);

    /** @return true once either watchdog has fired. */
    bool watchdogTripped() const { return watchdogTripped_; }

    /**
     * True when nothing can make progress without outside help: no
     * Ready thread has a finite future wake-up scheduled and no
     * non-orphaned split transaction is in flight. Cold path — the
     * machine's own quiescence watchdog consults it only once its
     * window is exceeded; the sharded mesh's distributed watchdog
     * uses it to tell "parked, will resume" from "wedged for good".
     */
    bool quiescentNow() const;

    uint64_t cycle() const { return cycle_; }

    /** The owned memory system; only valid for the owning ctor. */
    mem::MemorySystem &mem();

    /** The memory port instructions execute against (always valid). */
    mem::MemoryPort &port() { return *port_; }

    /**
     * All thread slots, cluster-major. The mutable form marks the wake
     * cache stale: the caller may change any thread, and the next
     * cycle (or skip, or allDone()) reads the slots again.
     */
    std::vector<Thread> &
    threads()
    {
        wakesStale_ = true;
        return threads_;
    }
    const std::vector<Thread> &threads() const { return threads_; }

    /** Every fault any thread has taken, in order. */
    const std::vector<FaultRecord> &faultLog() const { return faultLog_; }

    /**
     * Install (or clear, with nullptr) the software fault handler.
     * Without one, faults terminate the thread.
     */
    void setFaultHandler(FaultHandler handler)
    {
        faultHandler_ = std::move(handler);
    }

    /** Install (or clear) the per-instruction trace hook. */
    void setTraceHook(TraceHook hook) { traceHook_ = std::move(hook); }

    const MachineConfig &config() const { return config_; }
    sim::StatGroup &stats() { return stats_; }

    /**
     * Drop every predecoded instruction. Rarely needed: entries are
     * validated against the fetched word's bits on every use, so
     * stores to code pages and loader changes invalidate stale
     * entries automatically. Provided for debuggers and tests that
     * want a cold decode path.
     */
    void flushPredecode();

    /**
     * Register a verifier-produced safety proof for a loaded image.
     * Consulted only at predecode-miss time (never per executed
     * instruction): the matching verdict byte is baked into the
     * predecoded entry, bound to the exact raw bits it was proven
     * for. Takes effect only with config().elideChecks set. Flushes
     * the predecode cache so already-decoded instructions pick up
     * their verdicts.
     */
    void registerElideProof(const ElideProof &proof);

    /** Drop all registered proofs (and their baked verdicts). */
    void clearElideProofs();

  private:
    /// Retired-instruction mix classes: alu/mem/branch/control/
    /// pointer/misc (see instClass() in machine.cc).
    static constexpr unsigned kInstClassCount = 6;

    /** Create and cache the stat handles (shared by both ctors). */
    void initStats();

    /**
     * Issue for one cluster in the current cycle, round-robin from
     * slot @p start over the cached slot wakes, then recompute the
     * cluster's wake from its slots. step() charges the cluster-cycle
     * when nothing issued, which happens only while the profiler is
     * armed (a cluster whose wake has come always issues).
     * @return the instructions issued.
     */
    unsigned stepCluster(unsigned cluster, unsigned start);

    /**
     * Profiler attribution of a cluster-cycle that issued nothing: to
     * the blocking thread's wait, or empty.
     */
    void profileIdleCluster(unsigned cluster);

    /** Rebuild every cluster's wake and Ready count from the slots. */
    void refreshWakes();

    /** allDone() from the slots, for a stale wake cache. */
    bool scanDone() const;

    /** The earliest cached wake over all clusters. */
    uint64_t
    nextWake() const
    {
        uint64_t wake = UINT64_MAX;
        for (const ClusterWake &w : wakes_)
            wake = std::min(wake, w.wake);
        return wake;
    }

    /** Fetch, decode, and execute one instruction for a thread. */
    void issueThread(Thread &thread);

    /**
     * Decode/execute path after the fetch returned: shared by the
     * synchronous issue path and deferred-fetch completion at the
     * epoch barrier (the fetch result is the same either way).
     * @p issued is the cycle the fetch was issued.
     */
    void finishFetch(Thread &thread, const mem::MemAccess &f,
                     uint64_t issued);

    /**
     * The hang and fault outcomes of any port access: a hung thread
     * stalls forever, a faulting one takes the fault.
     * @return true when the access delivered.
     */
    bool accessDelivered(Thread &thread, const mem::MemAccess &acc);

    /** Thread slot index of @p t (profiler and deferral key). */
    uint32_t
    slotOf(const Thread &t) const
    {
        return uint32_t(&t - threads_.data());
    }

    /**
     * Count one elidable check event (pointer-op check, displacement
     * LEA, access check, IP-advance LEA) as elided or executed. Only
     * paid under elideChecks mode, so both counters read 0 in a
     * baseline run.
     */
    void noteCheck(bool elided);

    /**
     * Retire tail of every instruction that neither faulted nor
     * transferred control itself: retire, count the IP-advance check,
     * advance the IP, stall to @p done and close the profiler record
     * (execute tail Check when @p check_tail, else Compute).
     */
    void retireInst(Thread &thread, int64_t inst_delta, bool elide,
                    uint64_t done, bool check_tail);

    /**
     * Execute a decoded instruction whose fetch completed at ready_at.
     * Updates registers, IP, and the thread's stall time. @param
     * verdict is the instruction's baked elision verdict (0 = full
     * checks).
     */
    void execute(Thread &thread, const Inst &inst, uint64_t ready_at,
                 uint8_t verdict);

    /** Record a fault on the thread and the machine fault log. */
    void faultThread(Thread &thread, Fault f);

    /** Budget/quiescence check, called once per cycle when armed. */
    void checkWatchdog();

    /** Count a taken fault in its per-kind counter (lazily
     * registering kinds past WatchdogTimeout — see initStats). */
    void bumpFaultKind(Fault f);

    /**
     * Convert the hang into structured errors: fault every live
     * thread with WatchdogTimeout (bypassing the software handler —
     * the machine is presumed wedged) and dump the flight recorder.
     */
    void tripWatchdog(const char *why);

    /**
     * Advance IP sequentially / by a branch displacement.
     * @return false if the IP left its code segment (fault taken).
     * elide skips the IP bounds check (the instruction's never-faults
     * verdict covers every control-flow edge out of it).
     */
    bool advanceIp(Thread &thread, int64_t inst_delta,
                   bool elide = false);

    /**
     * Look up the elision verdict for the instruction at vaddr with
     * the given raw bits. Cold path: called only on a predecode miss,
     * so the per-executed-instruction hot loop never touches the
     * proof sidecar (tools/lint_hot_counters.sh enforces this).
     */
    uint8_t proofVerdict(uint64_t vaddr, uint64_t bits) const;

    /**
     * One slot of the predecoded-instruction cache. The simulator
     * decodes each static instruction once and memoises the result,
     * keyed by the fetch address. Correctness does not depend on
     * explicit invalidation: decode is a pure function of the fetched
     * 65-bit word, and each hit re-validates the stored raw bits
     * against the word the (always-performed, timed) fetch returned —
     * self-modifying code or a reloaded program simply misses and is
     * re-decoded. Simulated timing is untouched; only host decode
     * work is saved.
     */
    struct PredecodedInst
    {
        uint64_t addr = UINT64_MAX; //!< fetch vaddr (UINT64_MAX: empty)
        uint64_t bits = 0;          //!< raw word the decode came from
        Inst inst;
        /// Elision verdict baked at decode time (kElide* bits, with
        /// kElidePrivileged reflecting the proof's privilege mode);
        /// 0 = no proof, full checks. Bound to `bits`: a raw-bits
        /// mismatch re-decodes and re-derives the verdict, so
        /// self-modifying code re-arms checks automatically.
        uint8_t verdict = 0;
    };

    /// Direct-mapped predecode-cache size; must be a power of two.
    static constexpr size_t kPredecodeEntries = 4096;

    /// What kind of access an instruction issued (and, parked, waits on).
    enum class DeferredKind : uint8_t
    {
        Fetch,
        Load,
        Store,
    };

    /**
     * One issued memory instruction: everything its completion needs
     * to finish it, now or — parked as a split transaction — at the
     * epoch barrier (see completeMemOp() and completeDeferred()).
     */
    struct DeferredInst
    {
        uint64_t ticket = 0;      //!< exchange ticket (lookup key)
        uint32_t threadIndex = 0; //!< index into threads_
        DeferredKind kind = DeferredKind::Fetch;
        uint8_t rd = 0;           //!< destination register (loads)
        unsigned size = 0;        //!< access size
        uint64_t storeAddr = 0;   //!< effective address (stores)
        /// Cycle the access went to the port: the fetch's issue
        /// cycle, or a load/store's ready_at.
        uint64_t readyAt = 0;
        bool elide = false;       //!< check-elision state at issue
        /// Completion will never arrive (markDeferredOrphans): the
        /// park no longer vetoes the quiescence watchdog.
        bool orphaned = false;
    };

    /**
     * Finish a load or store once the port has answered, for the
     * synchronous path and a parked one alike: hang or fault, else
     * the load writeback or the store's proof-cover invalidation,
     * the access's profiler timeline, and retireInst() with the
     * stall to the access's completion cycle.
     */
    void completeMemOp(Thread &thread, const DeferredInst &op,
                       const mem::MemAccess &acc);

    MachineConfig config_;
    std::unique_ptr<mem::MemorySystem> ownedMem_;
    /// Zero-latency functional port over ownedMem_ (fastMode only);
    /// port_ points here instead of at the timed MemorySystem.
    std::unique_ptr<mem::FastPort> fastPort_;
    mem::MemoryPort *port_;
    std::vector<Thread> threads_; //!< [cluster][slot] flattened
    uint64_t cycle_ = 0;
    /// Clusters with a Ready thread, and Pending threads (parked on a
    /// split transaction, neither Ready nor done): all allDone()
    /// reads. They sit next to cycle_ on purpose: the sharded mesh
    /// sweeps allDone() over every node each epoch from one host
    /// thread, and must not pull in the wake entries that the node's
    /// own shard thread rewrites every cycle.
    uint32_t readyClusters_ = 0;
    uint32_t parked_ = 0;
    /// Some thread may have changed outside an issue (threads(),
    /// spawn, a software fault handler): rebuild before trusting the
    /// wake cache.
    bool wakesStale_ = false;

    /**
     * Wake cache, per cluster and per slot. Outside stepCluster() it
     * equals what a scan of the threads would give, so a cluster
     * whose wake lies in the future can be charged an idle cycle
     * without being scanned, and a stepped cluster scans these words
     * instead of its Thread objects. A cluster changes only through
     * its own issues (stepCluster() updates the issuer's slot) or
     * through events that may touch any thread. tripWatchdog() and
     * completeDeferred() rebuild the whole cache at once. The mutable
     * threads(), spawnOnCluster() and faultThread() (whose software
     * handler may change any thread) mark it stale instead: the
     * stepping cluster rebuilds at once after a handler, and step(),
     * skipIdleCycles() and allDone() never read a stale cache.
     */
    struct ClusterWake
    {
        /// Earliest cycle any Ready thread in the cluster can issue
        /// (UINT64_MAX when none can without outside help).
        uint64_t wake = UINT64_MAX;
        uint32_t ready = 0; //!< Ready threads in the cluster
    };
    std::vector<ClusterWake> wakes_;
    /// Per slot: the thread's stallUntil when Ready, else UINT64_MAX.
    std::vector<uint64_t> slotWake_;
    bool watchdogTripped_ = false;
    uint32_t nextThreadId_ = 0;
    uint64_t lastIssueCycle_ = 0; //!< for the quiescence watchdog
    std::vector<FaultRecord> faultLog_;
    FaultHandler faultHandler_;
    TraceHook traceHook_;
    sim::StatGroup stats_{"machine"};

    /// Per-cluster id of the thread that issued last, for counting
    /// zero-cost protection-domain switches (UINT32_MAX = none yet).
    std::vector<uint32_t> lastIssuedId_;

    // Cached stat handles (stable for the life of stats_) so the
    // per-instruction hot path pays plain increments, not map lookups.
    sim::Counter *instructions_ = nullptr;
    sim::Counter *cycles_ = nullptr;
    sim::Counter *idleClusterCycles_ = nullptr;
    sim::Counter *emptyClusterCycles_ = nullptr;
    sim::Counter *stalledClusterCycles_ = nullptr;
    sim::Counter *domainSwitches_ = nullptr;
    sim::Counter *gateCrossings_ = nullptr;
    sim::Counter *faults_ = nullptr;
    sim::Counter *faultsRecovered_ = nullptr;
    sim::Counter *threadsSpawned_ = nullptr;
    sim::Counter *watchdogTrips_ = nullptr;
    sim::Counter *hungAccesses_ = nullptr;
    sim::Counter *predecodeHits_ = nullptr;
    sim::Counter *predecodeMisses_ = nullptr;
    /// Elidable-check events skipped / run under elideChecks mode
    /// (both stay 0 when the mode is off). One event per pointer-op
    /// check, displacement LEA, access check, and IP-advance LEA.
    sim::Counter *elideChecksElided_ = nullptr;
    sim::Counter *elideChecksExecuted_ = nullptr;
    /// Simulated cycles the elided checking datapath gave back (one
    /// per elided pointer op: its execute tail folds into the fetch
    /// shadow).
    sim::Counter *elideCyclesSaved_ = nullptr;
    sim::Counter *mix_[kInstClassCount] = {};
    sim::Counter *faultKind_[16] = {}; //!< indexed by unsigned(Fault)

    /// Registered safety proofs; consulted only on predecode misses.
    std::vector<ElideProof> elideProofs_;

    /// Union [lo, hi) byte cover of every registered proof's code
    /// range. An architectural store landing inside it drops ALL
    /// proofs: rewriting one instruction can invalidate verdicts at
    /// instructions whose own bits are unchanged, because safety
    /// facts flow through dataflow.
    uint64_t proofCoverLo_ = UINT64_MAX;
    uint64_t proofCoverHi_ = 0;

    /// Proofs were dropped while execute() had a decoded instruction
    /// aliasing the predecode array; issueThread flushes the baked
    /// verdicts as soon as the instruction retires.
    bool proofsDirty_ = false;

    /// Direct-mapped predecoded-instruction cache, indexed by
    /// (vaddr >> 3) & (kPredecodeEntries - 1).
    std::vector<PredecodedInst> predecode_;

    /// Outstanding split transactions (one per Pending thread, at
    /// most threads_.size() entries — linear lookup is fine).
    std::vector<DeferredInst> deferred_;
};

} // namespace gp::isa

#endif // GP_ISA_MACHINE_H
