#include "isa/machine.h"

#include <algorithm>

#include "gp/ops.h"
#include "gp/pointer.h"
#include "sim/faultinject.h"
#include "sim/log.h"
#include "sim/profile.h"
#include "sim/trace.h"

namespace gp::isa {

namespace {

/** Retired-instruction mix classes (indices into Machine::mix_). */
enum InstClass : unsigned
{
    ClassAlu = 0,  //!< integer ALU, moves, immediates
    ClassMem,      //!< loads and stores
    ClassBranch,   //!< conditional branches
    ClassControl,  //!< JMP/GETIP/HALT/NOP
    ClassPointer,  //!< guarded-pointer operations (§2.2)
    ClassMisc,     //!< anything else
};

constexpr const char *kClassNames[] = {
    "alu", "mem", "branch", "control", "pointer", "misc",
};

/** Classify an opcode for the retired-instruction mix counters. */
unsigned
instClass(Op op)
{
    switch (op) {
      case Op::ADD:
      case Op::SUB:
      case Op::MUL:
      case Op::AND:
      case Op::OR:
      case Op::XOR:
      case Op::SHL:
      case Op::SHR:
      case Op::SRA:
      case Op::SLT:
      case Op::SLTU:
      case Op::ADDI:
      case Op::ANDI:
      case Op::ORI:
      case Op::XORI:
      case Op::SHLI:
      case Op::SHRI:
      case Op::SRAI:
      case Op::MOVI:
      case Op::LUI:
      case Op::MOV:
        return ClassAlu;
      case Op::LD:
      case Op::LDW:
      case Op::LDH:
      case Op::LDB:
      case Op::ST:
      case Op::STW:
      case Op::STH:
      case Op::STB:
        return ClassMem;
      case Op::BEQ:
      case Op::BNE:
      case Op::BLT:
      case Op::BGE:
        return ClassBranch;
      case Op::NOP:
      case Op::HALT:
      case Op::JMP:
      case Op::GETIP:
        return ClassControl;
      case Op::LEA:
      case Op::LEAI:
      case Op::LEAB:
      case Op::LEABI:
      case Op::RESTRICT:
      case Op::SUBSEG:
      case Op::SETPTR:
      case Op::ISPTR:
      case Op::PTOI:
      case Op::ITOP:
        return ClassPointer;
      default:
        return ClassMisc;
    }
}

} // namespace

Machine::Machine(const MachineConfig &config)
    : config_(config),
      ownedMem_(std::make_unique<mem::MemorySystem>(config.mem)),
      port_(ownedMem_.get()),
      threads_(size_t(config.clusters) * config.threadsPerCluster),
      wakes_(config.clusters),
      slotWake_(threads_.size(), UINT64_MAX)
{
    if (config_.clusters == 0 || config_.threadsPerCluster == 0)
        sim::fatal("machine needs at least one cluster and thread slot");
    if (config_.fastMode) {
        // Functional-only execution: swap the timed memory system for
        // the zero-latency FastPort over the same functional memory.
        // Modes whose behaviour lives in the timing path cannot be
        // modelled here — refuse loudly rather than diverge silently.
        if (config_.mem.ecc != mem::EccMode::None)
            sim::fatal("fast mode is functional-only and cannot "
                       "model ECC");
        if (sim::FaultInjector::armed())
            sim::fatal("fast mode cannot run under an armed fault "
                       "campaign (draw order is cycle-accurate)");
        fastPort_ = std::make_unique<mem::FastPort>(*ownedMem_);
        port_ = fastPort_.get();
    }
    initStats();
}

Machine::Machine(const MachineConfig &config, mem::MemoryPort &port)
    : config_(config),
      port_(&port),
      threads_(size_t(config.clusters) * config.threadsPerCluster),
      wakes_(config.clusters),
      slotWake_(threads_.size(), UINT64_MAX)
{
    if (config_.clusters == 0 || config_.threadsPerCluster == 0)
        sim::fatal("machine needs at least one cluster and thread slot");
    if (config_.fastMode)
        sim::fatal("fast mode requires the owning constructor (an "
                   "external memory port supplies its own timing)");
    initStats();
}

void
Machine::initStats()
{
    instructions_ = &stats_.counter("instructions");
    cycles_ = &stats_.counter("cycles");
    idleClusterCycles_ = &stats_.counter("idle_cluster_cycles");
    emptyClusterCycles_ = &stats_.counter("empty_cluster_cycles");
    stalledClusterCycles_ = &stats_.counter("stalled_cluster_cycles");
    domainSwitches_ = &stats_.counter("domain_switches");
    gateCrossings_ = &stats_.counter("gate_crossings");
    faults_ = &stats_.counter("faults");
    faultsRecovered_ = &stats_.counter("faults_recovered");
    threadsSpawned_ = &stats_.counter("threads_spawned");
    watchdogTrips_ = &stats_.counter("watchdog_trips");
    hungAccesses_ = &stats_.counter("hung_accesses");
    predecodeHits_ = &stats_.counter("predecode_hits");
    predecodeMisses_ = &stats_.counter("predecode_misses");
    elideChecksElided_ = &stats_.counter("elide_checks_elided");
    elideChecksExecuted_ = &stats_.counter("elide_checks_executed");
    elideCyclesSaved_ = &stats_.counter("elide_cycles_saved");
    predecode_.assign(kPredecodeEntries, PredecodedInst{});
    for (unsigned i = 0; i < kInstClassCount; ++i)
        mix_[i] = &stats_.counter(std::string("mix_") + kClassNames[i]);
    // Per-kind fault counters. Kinds through WatchdogTimeout are
    // registered eagerly (they predate the sharded-mesh signature
    // baselines); later kinds (NodeUnreachable) register lazily on
    // first occurrence in bumpFaultKind(), so a machine that never
    // sees one exposes exactly the counter set the blessed F6/fig5
    // signatures were pinned to.
    for (unsigned i = 1; i <= unsigned(Fault::WatchdogTimeout); ++i) {
        faultKind_[i] = &stats_.counter(
            std::string("fault_") + std::string(faultName(Fault(i))));
    }
    lastIssuedId_.assign(config_.clusters, UINT32_MAX);
}

void
Machine::flushPredecode()
{
    predecode_.assign(kPredecodeEntries, PredecodedInst{});
}

void
Machine::registerElideProof(const ElideProof &proof)
{
    elideProofs_.push_back(proof);
    const uint64_t lo = proof.base;
    const uint64_t hi = proof.base + 8 * proof.verdicts.size();
    proofCoverLo_ = lo < proofCoverLo_ ? lo : proofCoverLo_;
    proofCoverHi_ = hi > proofCoverHi_ ? hi : proofCoverHi_;
    flushPredecode();
}

void
Machine::clearElideProofs()
{
    elideProofs_.clear();
    proofCoverLo_ = UINT64_MAX;
    proofCoverHi_ = 0;
    proofsDirty_ = false;
    flushPredecode();
}

uint8_t
Machine::proofVerdict(uint64_t vaddr, uint64_t bits) const
{
    for (const ElideProof &p : elideProofs_) {
        if (vaddr < p.base || (vaddr - p.base) % 8 != 0)
            continue;
        const uint64_t idx = (vaddr - p.base) / 8;
        if (idx >= p.verdicts.size() || idx >= p.bits.size())
            continue;
        // The verdict is bound to the exact bits it was proven for: a
        // mismatch means the image changed after verification, so
        // decode the word afresh but trust nothing about it.
        if (p.bits[idx] != bits)
            return 0;
        uint8_t v = p.verdicts[idx];
        if (p.privileged)
            v |= kElidePrivileged;
        return v;
    }
    return 0;
}

mem::MemorySystem &
Machine::mem()
{
    if (!ownedMem_)
        sim::panic("Machine::mem(): machine runs on an external "
                   "memory port; use port() instead");
    return *ownedMem_;
}

Thread *
Machine::spawn(Word entry_ip)
{
    // Pick the cluster with the fewest live threads for balance.
    unsigned best_cluster = 0;
    unsigned best_live = UINT32_MAX;
    for (unsigned c = 0; c < config_.clusters; ++c) {
        unsigned live = 0;
        bool has_free = false;
        for (unsigned s = 0; s < config_.threadsPerCluster; ++s) {
            const Thread &t =
                threads_[c * config_.threadsPerCluster + s];
            if (t.state() == ThreadState::Ready)
                live++;
            if (t.state() == ThreadState::Idle ||
                t.state() == ThreadState::Halted ||
                t.state() == ThreadState::Faulted) {
                has_free = true;
            }
        }
        if (has_free && live < best_live) {
            best_live = live;
            best_cluster = c;
        }
    }
    if (best_live == UINT32_MAX)
        return nullptr;
    return spawnOnCluster(best_cluster, entry_ip);
}

Thread *
Machine::spawnOnCluster(unsigned cluster, Word entry_ip)
{
    if (cluster >= config_.clusters)
        return nullptr;
    for (unsigned s = 0; s < config_.threadsPerCluster; ++s) {
        Thread &t = threads_[cluster * config_.threadsPerCluster + s];
        if (t.state() == ThreadState::Idle ||
            t.state() == ThreadState::Halted ||
            t.state() == ThreadState::Faulted) {
            t.start(entry_ip, nextThreadId_++);
            (*threadsSpawned_)++;
            // The caller may still set up the thread through the
            // returned pointer (registers, a stall) before it runs.
            wakesStale_ = true;
            return &t;
        }
    }
    return nullptr;
}

bool
Machine::scanDone() const
{
    for (const Thread &t : threads_)
        if (t.state() == ThreadState::Ready ||
            t.state() == ThreadState::Pending)
            return false;
    return true;
}

void
Machine::refreshWakes()
{
    const unsigned nslots = config_.threadsPerCluster;
    readyClusters_ = 0;
    for (unsigned c = 0; c < config_.clusters; ++c) {
        ClusterWake w;
        for (unsigned s = c * nslots; s < (c + 1) * nslots; ++s) {
            const Thread &t = threads_[s];
            const bool ready = t.state() == ThreadState::Ready;
            slotWake_[s] = ready ? t.stallUntil() : UINT64_MAX;
            w.ready += ready;
            w.wake = std::min(w.wake, slotWake_[s]);
        }
        wakes_[c] = w;
        readyClusters_ += w.ready != 0;
    }
    wakesStale_ = false;
}

void
Machine::step()
{
    // Threads changed from outside (threads(), spawn) since the last
    // cycle: one flag test when nothing was.
    if (wakesStale_)
        refreshWakes();
    // Feed the trace hub the current cycle so layers without direct
    // cycle access (gp pointer ops) can stamp events. One static-load
    // branch when tracing is fully off.
    if (sim::TraceManager::anyEnabled())
        sim::TraceManager::instance().setCycle(cycle_);
    // The round-robin cursor of every cluster advances by one each
    // cycle, stepped or skipped, from slot 0 at cycle 0. A mask, not
    // a 64-bit division, for the usual power-of-two slot count.
    const unsigned nslots = config_.threadsPerCluster;
    const unsigned start = (nslots & (nslots - 1)) == 0
                               ? unsigned(cycle_ & (nslots - 1))
                               : unsigned(cycle_ % nslots);
    // The profiler attributes every cluster-cycle, so it sees them all.
    const bool every = sim::Profiler::armed();
    uint64_t stalled = 0;
    uint64_t empty = 0;
    for (unsigned c = 0; c < config_.clusters; ++c) {
        // Read per cluster: a fault handler on an earlier cluster may
        // have rebuilt the cache in this very cycle.
        const ClusterWake &w = wakes_[c];
        if ((every || w.wake <= cycle_) && stepCluster(c, start) != 0)
            continue;
        // Nothing issued: live threads all stalled on memory or trap
        // latency, or no runnable thread in the cluster.
        if (w.ready)
            stalled++;
        else
            empty++;
        if (every)
            profileIdleCluster(c);
    }
    if (stalled + empty != 0) {
        *idleClusterCycles_ += stalled + empty;
        *stalledClusterCycles_ += stalled;
        *emptyClusterCycles_ += empty;
    }
    cycle_++;
    (*cycles_)++;
    // Tick-scheduled fault sites (resident-memory flips etc.): one
    // static-bool test when no campaign is armed. The sharded mesh
    // engine suppresses the per-machine tick and ticks the injector
    // centrally at the epoch barrier instead, so draw order does not
    // depend on the host-thread count.
    if (!config_.externalInjectorTick && sim::FaultInjector::armed())
        sim::FaultInjector::instance().tick(cycle_);
    if (sim::Profiler::armed())
        sim::Profiler::instance().tick(cycle_);
    if ((config_.watchdogCycles != 0 ||
         config_.watchdogQuiescence != 0) &&
        !watchdogTripped_)
        checkWatchdog();
}

void
Machine::checkWatchdog()
{
    if (config_.watchdogCycles != 0 &&
        cycle_ >= config_.watchdogCycles) {
        tripWatchdog("cycle-budget");
        return;
    }
    // Quiescence: the window test is the cheap per-cycle gate; the
    // quiescentNow() scan runs only once the window has already been
    // exceeded, so the common case pays two compares.
    if (config_.watchdogQuiescence != 0 &&
        cycle_ - lastIssueCycle_ >= config_.watchdogQuiescence &&
        !allDone() && quiescentNow())
        tripWatchdog("quiescence");
}

bool
Machine::quiescentNow() const
{
    // Not quiescent while any thread has a scheduled future wake-up:
    // a Ready thread stalled to a *finite* cycle (long NoC backoff,
    // retransmission timeouts) will issue again without outside help.
    // stallUntil == UINT64_MAX is the hung-forever sentinel and does
    // not count as a scheduled wake. The comparison is >= because
    // this runs post-increment: a stall expiring at exactly cycle_
    // issues in the upcoming stepCluster, which has not run yet.
    for (const Thread &t : threads_) {
        if (t.state() == ThreadState::Ready &&
            t.stallUntil() != UINT64_MAX && t.stallUntil() >= cycle_)
            return false;
    }
    // Not quiescent while a split transaction is genuinely in flight:
    // the epoch barrier will complete it (possibly with a fault) and
    // that completion counts as progress. Entries the engine marked
    // orphaned will never complete — threads parked on those are
    // wedged and must not veto the trip.
    for (const DeferredInst &d : deferred_)
        if (!d.orphaned)
            return false;
    return true;
}

void
Machine::markDeferredOrphans()
{
    for (DeferredInst &d : deferred_)
        d.orphaned = true;
}

void
Machine::tripWatchdog(const char *why)
{
    watchdogTripped_ = true;
    (*watchdogTrips_)++;
    GP_TRACE(Fault, cycle_, 0, "watchdog", "%s cycle=%llu", why,
             static_cast<unsigned long long>(cycle_));
    sim::warn("machine: watchdog trip (%s) at cycle %llu", why,
              static_cast<unsigned long long>(cycle_));
    for (Thread &t : threads_) {
        if (t.state() != ThreadState::Ready &&
            t.state() != ThreadState::Pending)
            continue;
        // Structured conversion of the hang: fault the thread
        // directly, bypassing the software handler — a wedged
        // machine cannot be trusted to run recovery code. Pending
        // threads are killed too: their split transaction will never
        // be delivered to a tripped machine.
        GP_TRACE(Fault, cycle_, t.id(), "watchdog-kill",
                 "t%u ip=0x%llx", t.id(),
                 static_cast<unsigned long long>(t.ip().addr()));
        if (t.state() == ThreadState::Pending)
            parked_--;
        t.stallTo(0);
        t.takeFault(Fault::WatchdogTimeout, cycle_);
        faultLog_.push_back(t.faultRecord());
        (*faults_)++;
        bumpFaultKind(Fault::WatchdogTimeout);
    }
    refreshWakes();
    // Dump the flight recorder (no-op unless one is armed).
    sim::TraceManager::instance().unhandledFault();
}

void
Machine::forceWatchdogTrip(const char *why)
{
    if (!watchdogTripped_)
        tripWatchdog(why);
}

void
Machine::bumpFaultKind(Fault f)
{
    const unsigned fi = unsigned(f);
    if (fi >= 16)
        return;
    // Lazy registration for kinds past WatchdogTimeout (see
    // initStats): the counter appears only in runs that actually took
    // the fault, keeping fault-free stat exports and signatures
    // byte-identical to the pre-NodeUnreachable baselines. Cold path.
    if (!faultKind_[fi])
        faultKind_[fi] = &stats_.counter(
            std::string("fault_") + std::string(faultName(f)));
    (*faultKind_[fi])++;
}

uint64_t
Machine::run(uint64_t max_cycles)
{
    const uint64_t ran = advance(max_cycles);
    if (!allDone())
        sim::warn("machine: run() hit the %llu-cycle limit",
                  static_cast<unsigned long long>(max_cycles));
    return ran;
}

uint64_t
Machine::advance(uint64_t max_cycles)
{
    const uint64_t start = cycle_;
    const uint64_t limit =
        max_cycles > UINT64_MAX - start ? UINT64_MAX : start + max_cycles;
    // Jump to the next wake when no cluster can issue, else run one
    // cycle. A skip charges exactly what its cycles' steps would, so
    // the order matches a step() loop cycle for cycle. A stale cache
    // (threads changed from outside) can only send a skippable cycle
    // to step(), which rebuilds it and charges that cycle exactly.
    while (cycle_ < limit && !allDone())
        if (nextWake() <= cycle_ || skipIdleCycles(limit) == 0)
            step();
    return cycle_ - start;
}

uint64_t
Machine::skipIdleCycles(uint64_t limit)
{
    if (sim::Profiler::armed() ||
        (!config_.externalInjectorTick && sim::FaultInjector::armed()))
        return 0;
    if (wakesStale_)
        refreshWakes();
    // The earliest cycle any Ready thread can issue. Nothing but an
    // issue changes thread state inside the machine, so every cycle
    // before it is idle on every cluster.
    const uint64_t wake = nextWake();
    if (wake <= cycle_)
        return 0;
    uint64_t target = std::min(wake, limit);
    const bool watched = (config_.watchdogCycles != 0 ||
                          config_.watchdogQuiescence != 0) &&
                         !watchdogTripped_;
    if (watched) {
        if (config_.watchdogCycles != 0)
            target = std::min(target, config_.watchdogCycles);
        // A finite wake keeps quiescentNow() false on every skipped
        // cycle. Without one, the quiescence test can pass as soon as
        // its window closes: stop there.
        if (config_.watchdogQuiescence != 0 && wake == UINT64_MAX &&
            quiescentNow()) {
            const uint64_t trip =
                config_.watchdogQuiescence > UINT64_MAX - lastIssueCycle_
                    ? UINT64_MAX
                    : lastIssueCycle_ + config_.watchdogQuiescence;
            target = std::min(target, trip);
        }
    }
    if (target <= cycle_)
        return 0;

    const uint64_t n = target - cycle_;
    *stalledClusterCycles_ += n * readyClusters_;
    *emptyClusterCycles_ += n * (config_.clusters - readyClusters_);
    *idleClusterCycles_ += n * config_.clusters;
    *cycles_ += n;
    cycle_ = target;
    // The last skipped step() would have stamped its cycle on the
    // trace hub and run the watchdog check at the new cycle.
    if (sim::TraceManager::anyEnabled())
        sim::TraceManager::instance().setCycle(cycle_ - 1);
    if (watched)
        checkWatchdog();
    return n;
}

unsigned
Machine::stepCluster(unsigned cluster, unsigned start)
{
    // Round-robin over the cluster's thread slots: issue up to
    // issueWidth instructions, each from a distinct ready thread.
    // This is the zero-cost context switch — no protection state is
    // touched between threads. The scan reads the slots' cached wakes.
    // An issue changes only its own thread, so only the issuer's slot
    // is updated, unless a fault handler ran: it may have changed any
    // thread, so the whole cache is rebuilt before the scan goes on.
    const unsigned nslots = config_.threadsPerCluster;
    const unsigned base = cluster * nslots;
    ClusterWake &w = wakes_[cluster];
    unsigned issued = 0;
    for (unsigned i = 0; i < nslots && issued < config_.issueWidth;
         ++i) {
        // start and i are both < nslots, so the wrap is a single
        // compare/subtract — no integer division per slot.
        unsigned slot = start + i;
        if (slot >= nslots)
            slot -= nslots;
        if (slotWake_[base + slot] > cycle_)
            continue;
        Thread &t = threads_[base + slot];
        // Consecutive issues from different threads are the paper's
        // zero-cost protection-domain switches — count them.
        if (lastIssuedId_[cluster] != UINT32_MAX &&
            lastIssuedId_[cluster] != t.id()) {
            (*domainSwitches_)++;
        }
        lastIssuedId_[cluster] = t.id();
        issueThread(t);
        // CPI-stack attribution: the cluster-cycle belongs to its
        // first issuer (deterministic with issueWidth > 1). After
        // issueThread so the new instruction's record (and its
        // protection domain) is already open.
        if (sim::Profiler::armed() && issued == 0)
            sim::Profiler::instance().attrIssue(slotOf(t));
        issued++;
        if (wakesStale_) {
            refreshWakes();
        } else if (t.state() == ThreadState::Ready) {
            slotWake_[base + slot] = t.stallUntil();
        } else {
            slotWake_[base + slot] = UINT64_MAX; // halted or parked
            if (--w.ready == 0)
                readyClusters_--;
        }
    }
    // The cluster's wake from its slots (one cache line for up to
    // eight slots).
    uint64_t wake = UINT64_MAX;
    for (unsigned s = base; s < base + nslots; ++s)
        wake = std::min(wake, slotWake_[s]);
    w.wake = wake;
    return issued;
}

void
Machine::profileIdleCluster(unsigned cluster)
{
    if (wakes_[cluster].ready == 0) {
        sim::Profiler::instance().attrEmpty();
        return;
    }
    // Charge the stall to whatever the *blocking* thread (the Ready
    // thread that will unstall first) is waiting on.
    const unsigned nslots = config_.threadsPerCluster;
    const unsigned base = cluster * nslots;
    unsigned blocking = base;
    uint64_t soonest = UINT64_MAX;
    for (unsigned s = base; s < base + nslots; ++s) {
        const Thread &bt = threads_[s];
        if (bt.state() == ThreadState::Ready && bt.stallUntil() < soonest) {
            soonest = bt.stallUntil();
            blocking = s;
        }
    }
    sim::Profiler::instance().attrStall(blocking, cycle_);
}

void
Machine::faultThread(Thread &thread, Fault f)
{
    // The software handler below may halt, resume or restall any
    // thread while it has control: the wake cache must be rebuilt.
    wakesStale_ = true;
    thread.takeFault(f, cycle_);
    faultLog_.push_back(thread.faultRecord());
    (*faults_)++;
    bumpFaultKind(f);
    GP_TRACE(Fault, cycle_, thread.id(),
             std::string(faultName(f)).c_str(), "t%u ip=0x%llx",
             thread.id(),
             static_cast<unsigned long long>(thread.ip().addr()));

    if (faultHandler_) {
        // Dispatch to the software handler (event code in M-Machine
        // terms). It may repair the cause and resume the thread; the
        // trap cost is charged to the thread either way.
        const FaultAction action =
            faultHandler_(thread, thread.faultRecord());
        switch (action) {
          case FaultAction::Terminate:
            break;
          case FaultAction::Retry:
          case FaultAction::Resume:
            // Retry re-issues at the (possibly handler-patched) IP;
            // Resume continues at whatever IP the handler installed.
            // The machine treats both the same — the distinction is
            // the handler's contract with itself.
            thread.resumeFromFault();
            thread.stallTo(cycle_ + config_.faultTrapCycles);
            (*faultsRecovered_)++;
            // The thread's next stall window is handler latency.
            if (sim::Profiler::armed())
                sim::Profiler::instance().noteTrap(
                    slotOf(thread), cycle_,
                    config_.faultTrapCycles);
            break;
        }
    }

    // The thread terminates on this fault: trigger the flight-recorder
    // dump (a no-op unless a recorder is armed and has events).
    if (thread.state() == ThreadState::Faulted)
        sim::TraceManager::instance().unhandledFault();
}

bool
Machine::advanceIp(Thread &thread, int64_t inst_delta, bool elide)
{
    if (elide) {
        // A never-faults verdict covers every control-flow edge out of
        // the instruction (escaping edges record a BoundsViolation at
        // its index), so the IP update is provably in-segment.
        thread.setIp(gp::leaUnchecked(thread.ip(), inst_delta * 8));
        return true;
    }
    auto next = gp::lea(thread.ip(), inst_delta * 8);
    if (!next) {
        // Running or branching off the end of the code segment is a
        // bounds violation on the IP — by construction code cannot
        // escape its segment.
        faultThread(thread, next.fault);
        return false;
    }
    thread.setIp(next.value);
    return true;
}

void
Machine::issueThread(Thread &thread)
{
    lastIssueCycle_ = cycle_; // progress signal for the watchdog
    if (sim::Profiler::armed())
        sim::Profiler::instance().accBegin(sim::ProfComp::IFetch);
    const mem::MemAccess f = port_->portFetch(thread.ip(), cycle_);
    if (f.deferred) {
        // Cross-shard fetch under the epoch engine: park the thread
        // until the barrier delivers the fetched word, then resume
        // through finishFetch() as if the fetch had just returned.
        thread.park();
        parked_++;
        deferred_.push_back({f.ticket, slotOf(thread),
                             DeferredKind::Fetch, 0, 0, 0, cycle_});
        return;
    }
    finishFetch(thread, f, cycle_);
}

bool
Machine::accessDelivered(Thread &thread, const mem::MemAccess &acc)
{
    if (acc.hang) {
        // The access will never complete (lost NoC request with
        // retransmission off): the thread stalls forever. Only a
        // watchdog can reclaim it.
        thread.stallTo(UINT64_MAX);
        (*hungAccesses_)++;
        if (sim::Profiler::armed())
            sim::Profiler::instance().noteHang(slotOf(thread), cycle_);
        return false;
    }
    if (acc.fault != Fault::None) {
        faultThread(thread, acc.fault);
        return false;
    }
    return true;
}

void
Machine::finishFetch(Thread &thread, const mem::MemAccess &f,
                     uint64_t issued)
{
    if (!accessDelivered(thread, f))
        return;

    // Predecoded-instruction cache: decode is a pure function of the
    // fetched 65-bit word, so memoise it per static instruction. The
    // timed fetch above always happens (simulated timing and faults
    // are identical either way); a hit only skips host decode work.
    // Each hit re-validates the stored raw bits against the word the
    // fetch actually returned, so self-modifying code and loader
    // changes invalidate entries implicitly. Tagged words never
    // decode, hence the isPointer() guard on the hit path.
    const uint64_t ip_addr = thread.ip().addr();
    PredecodedInst &slot =
        predecode_[(ip_addr >> 3) & (kPredecodeEntries - 1)];
    const Inst *inst = nullptr;
    if (slot.addr == ip_addr && slot.bits == f.data.bits() &&
        !f.data.isPointer()) {
        inst = &slot.inst;
        (*predecodeHits_)++;
    } else {
        const auto decoded = gp::isa::decodeInst(f.data);
        if (!decoded) {
            faultThread(thread, Fault::InvalidInstruction);
            return;
        }
        slot.addr = ip_addr;
        slot.bits = f.data.bits();
        slot.inst = *decoded;
        // Bake the elision verdict on the miss only: the hot hit path
        // never consults the proof sidecar (the hit's raw-bits check
        // also guarantees the baked verdict still matches the code).
        slot.verdict = config_.elideChecks && !elideProofs_.empty()
                           ? proofVerdict(ip_addr, f.data.bits())
                           : 0;
        inst = &slot.inst;
        (*predecodeMisses_)++;
    }

    if (sim::Profiler::armed()) {
        // Open the instruction's occupancy record at the issue cycle
        // (earlier than now for a fetch parked across an epoch); the
        // IP's segment is the thread's protection-domain identity.
        // The fetch's scratch timeline covers [issue, fetch-complete).
        const gp::PointerView ipv(thread.ip());
        auto &prof = sim::Profiler::instance();
        prof.beginInst(slotOf(thread), issued, ip_addr,
                       ipv.segmentBase(), ipv.segmentLimit());
        prof.flushAccess(slotOf(thread), f.completeCycle - issued);
    }
    if (traceHook_)
        traceHook_(thread, *inst, cycle_);
    // Structured twin of the trace hook: same point in the issue path,
    // but routed through the TraceManager sinks. Format arguments
    // (including the toString) are not evaluated when Exec is off.
    GP_TRACE(Exec, cycle_, thread.id(),
             std::string(opName(inst->op)).c_str(), "t%u ip=0x%llx %s",
             thread.id(),
             static_cast<unsigned long long>(thread.ip().addr()),
             toString(*inst).c_str());
    execute(thread, *inst, f.completeCycle, slot.verdict);
    (*instructions_)++;
    (*mix_[instClass(inst->op)])++;
    if (proofsDirty_) {
        // A store into a verified image dropped the proofs mid-execute;
        // now that nothing aliases the predecode array, purge the
        // baked verdicts before the next instruction can issue.
        proofsDirty_ = false;
        flushPredecode();
    }
}

inline void
Machine::noteCheck(bool elided)
{
    if (!config_.elideChecks)
        return;
    if (elided)
        (*elideChecksElided_)++;
    else
        (*elideChecksExecuted_)++;
    if (sim::Profiler::armed())
        sim::Profiler::instance().noteCheck(elided);
}

inline void
Machine::retireInst(Thread &thread, int64_t inst_delta, bool elide,
                    uint64_t done, bool check_tail)
{
    thread.retire();
    noteCheck(elide);
    if (!advanceIp(thread, inst_delta, elide))
        return;
    thread.stallTo(done);
    if (sim::Profiler::armed())
        sim::Profiler::instance().endInst(
            slotOf(thread), done,
            check_tail ? sim::ProfComp::Check : sim::ProfComp::Compute);
}

inline void
Machine::completeMemOp(Thread &thread, const DeferredInst &op,
                       const mem::MemAccess &acc)
{
    if (!accessDelivered(thread, acc))
        return;
    if (op.kind == DeferredKind::Load) {
        thread.setReg(op.rd, acc.data);
    } else if (op.storeAddr + op.size > proofCoverLo_ &&
               op.storeAddr < proofCoverHi_) {
        // A store landing inside a verified image voids every proof:
        // rewriting one instruction can invalidate verdicts at other
        // instructions whose own bits are unchanged (safety facts flow
        // through dataflow). Two compares per store; fires ~never.
        elideProofs_.clear();
        proofCoverLo_ = UINT64_MAX;
        proofCoverHi_ = 0;
        proofsDirty_ = true; // flush later: inst may alias a slot
    }
    if (sim::Profiler::armed())
        sim::Profiler::instance().flushAccess(
            op.threadIndex, acc.completeCycle - op.readyAt);
    retireInst(thread, 1, op.elide, acc.completeCycle, false);
}

void
Machine::execute(Thread &thread, const Inst &inst, uint64_t ready_at,
                 uint8_t verdict)
{
    const Word ra = thread.reg(inst.ra);
    const Word rb = thread.reg(inst.rb);
    const bool priv = gp::ipPrivileged(thread.ip());

    // Verifier-driven check elision (docs/VERIFIER.md "Proof export &
    // check elision"): take the unchecked datapath only when the baked
    // proof says this instruction can never fault, the thread runs at
    // the privilege the proof was derived under, and no runtime
    // mechanism can push execution outside the verified envelope — an
    // armed fault campaign corrupts state behind the analysis's back,
    // and a software fault handler may patch registers on *another*
    // instruction's fault. With the feature off verdict is always 0,
    // so this costs one always-false bit test.
    const bool elide = verdictElides(verdict, priv) &&
                       !faultHandler_ &&
                       !sim::FaultInjector::armed();

    // Default: single-cycle execution after fetch, sequential IP.
    uint64_t done = ready_at + 1;
    int64_t branch_delta = 1;

    auto alu = [&](uint64_t value) {
        thread.setReg(inst.rd, Word::fromInt(value));
    };
    auto ptr_result = [&](const Result<Word> &r) {
        noteCheck(false);
        if (!r) {
            faultThread(thread, r.fault);
            return false;
        }
        thread.setReg(inst.rd, r.value);
        return true;
    };
    // Elided pointer op: the result comes straight off the address
    // datapath in the fetch shadow — the one-cycle checking tail
    // disappears from the timing model (the measurable simulated
    // saving of elision; memory-op check skips are host-speed only).
    auto elide_ptr = [&](Word value) {
        thread.setReg(inst.rd, value);
        done = ready_at;
        (*elideCyclesSaved_)++;
        noteCheck(true);
    };

    // Displacement-addressed memory operand: derive the effective
    // pointer with a bounds-checked LEA (paper §2.2, Load/Store).
    auto eff_ptr = [&](Word base, int32_t disp) -> Result<Word> {
        if (disp == 0)
            return Result<Word>::ok(base);
        if (elide) {
            noteCheck(true);
            return Result<Word>::ok(gp::leaUnchecked(base, disp));
        }
        noteCheck(false);
        return gp::lea(base, disp);
    };

    // A load or store: effective pointer, then the port. The
    // instruction finishes in completeMemOp() — now, or at the epoch
    // barrier when the port answers with a split transaction.
    auto do_mem = [&](DeferredKind kind, unsigned size) {
        auto ptr = eff_ptr(ra, inst.imm);
        if (!ptr) {
            faultThread(thread, ptr.fault);
            return;
        }
        if (sim::Profiler::armed())
            sim::Profiler::instance().accBegin(sim::ProfComp::DCache);
        noteCheck(elide);
        DeferredInst op{0,    slotOf(thread),   kind,     inst.rd,
                        size, ptr.value.addr(), ready_at, elide};
        const mem::MemAccess acc =
            kind == DeferredKind::Load
                ? port_->portLoad(ptr.value, size, ready_at, elide)
                : port_->portStore(ptr.value, thread.reg(inst.rd), size,
                                   ready_at, elide);
        if (acc.deferred) {
            // Cross-shard access: the pointer check already ran above;
            // park until the barrier delivers data and timing.
            thread.park();
            parked_++;
            op.ticket = acc.ticket;
            deferred_.push_back(op);
            return;
        }
        completeMemOp(thread, op, acc);
    };

    switch (inst.op) {
      case Op::NOP:
        break;
      case Op::HALT:
        thread.retire();
        thread.halt();
        if (sim::Profiler::armed())
            sim::Profiler::instance().endInst(
                slotOf(thread), ready_at + 1, sim::ProfComp::Compute);
        return;

      case Op::ADD:
        alu(ra.bits() + rb.bits());
        break;
      case Op::SUB:
        alu(ra.bits() - rb.bits());
        break;
      case Op::MUL:
        alu(ra.bits() * rb.bits());
        done = ready_at + config_.mulLatency;
        break;
      case Op::AND:
        alu(ra.bits() & rb.bits());
        break;
      case Op::OR:
        alu(ra.bits() | rb.bits());
        break;
      case Op::XOR:
        alu(ra.bits() ^ rb.bits());
        break;
      case Op::SHL:
        alu(ra.bits() << (rb.bits() & 63));
        break;
      case Op::SHR:
        alu(ra.bits() >> (rb.bits() & 63));
        break;
      case Op::SRA:
        alu(uint64_t(int64_t(ra.bits()) >> (rb.bits() & 63)));
        break;
      case Op::SLT:
        alu(int64_t(ra.bits()) < int64_t(rb.bits()) ? 1 : 0);
        break;
      case Op::SLTU:
        alu(ra.bits() < rb.bits() ? 1 : 0);
        break;

      case Op::ADDI:
        alu(ra.bits() + uint64_t(int64_t(inst.imm)));
        break;
      case Op::ANDI:
        alu(ra.bits() & uint64_t(int64_t(inst.imm)));
        break;
      case Op::ORI:
        alu(ra.bits() | uint64_t(int64_t(inst.imm)));
        break;
      case Op::XORI:
        alu(ra.bits() ^ uint64_t(int64_t(inst.imm)));
        break;
      case Op::SHLI:
        alu(ra.bits() << (uint32_t(inst.imm) & 63));
        break;
      case Op::SHRI:
        alu(ra.bits() >> (uint32_t(inst.imm) & 63));
        break;
      case Op::SRAI:
        alu(uint64_t(int64_t(ra.bits()) >> (uint32_t(inst.imm) & 63)));
        break;
      case Op::MOVI:
        alu(uint64_t(int64_t(inst.imm)));
        break;
      case Op::LUI:
        alu(uint64_t(uint32_t(inst.imm)) << 32);
        break;

      case Op::MOV:
        // Tag-preserving move: capabilities are freely copyable.
        thread.setReg(inst.rd, ra);
        break;

      case Op::LD:
        return do_mem(DeferredKind::Load, 8);
      case Op::LDW:
        return do_mem(DeferredKind::Load, 4);
      case Op::LDH:
        return do_mem(DeferredKind::Load, 2);
      case Op::LDB:
        return do_mem(DeferredKind::Load, 1);
      case Op::ST:
        return do_mem(DeferredKind::Store, 8);
      case Op::STW:
        return do_mem(DeferredKind::Store, 4);
      case Op::STH:
        return do_mem(DeferredKind::Store, 2);
      case Op::STB:
        return do_mem(DeferredKind::Store, 1);

      case Op::LEA:
        if (elide)
            elide_ptr(gp::leaUnchecked(ra, int64_t(rb.bits())));
        else if (!ptr_result(gp::lea(ra, int64_t(rb.bits()))))
            return;
        break;
      case Op::LEAI:
        if (elide)
            elide_ptr(gp::leaUnchecked(ra, int64_t(inst.imm)));
        else if (!ptr_result(gp::lea(ra, int64_t(inst.imm))))
            return;
        break;
      case Op::LEAB:
        if (elide)
            elide_ptr(gp::leabUnchecked(ra, int64_t(rb.bits())));
        else if (!ptr_result(gp::leab(ra, int64_t(rb.bits()))))
            return;
        break;
      case Op::LEABI:
        if (elide)
            elide_ptr(gp::leabUnchecked(ra, int64_t(inst.imm)));
        else if (!ptr_result(gp::leab(ra, int64_t(inst.imm))))
            return;
        break;
      case Op::RESTRICT:
        if (elide)
            elide_ptr(gp::restrictUnchecked(ra, Perm(rb.bits() & 0xf)));
        else if (!ptr_result(
                     gp::restrictPerm(ra, Perm(rb.bits() & 0xf))))
            return;
        break;
      case Op::SUBSEG:
        if (elide)
            elide_ptr(gp::subsegUnchecked(ra, rb.bits() & 0x3f));
        else if (!ptr_result(gp::subseg(ra, rb.bits() & 0x3f)))
            return;
        break;
      case Op::SETPTR:
        // The single privileged operation (§2.2, Pointer Creation).
        if (!priv) {
            faultThread(thread, Fault::PrivilegeViolation);
            return;
        }
        thread.setReg(inst.rd, gp::setptr(ra.bits()));
        break;
      case Op::ISPTR:
        alu(gp::ispointer(ra));
        break;
      case Op::PTOI:
        if (elide)
            elide_ptr(gp::ptrToIntUnchecked(ra));
        else if (!ptr_result(gp::ptrToInt(ra)))
            return;
        break;
      case Op::ITOP:
        if (elide)
            elide_ptr(gp::intToPtrUnchecked(ra, rb.bits()));
        else if (!ptr_result(gp::intToPtr(ra, rb.bits())))
            return;
        break;

      case Op::JMP: {
        auto target = gp::jumpTarget(ra, priv);
        if (!target) {
            faultThread(thread, target.fault);
            return;
        }
        // A jump through an enter pointer is a call-gate crossing into
        // another protection domain (§2.1) — count and trace it.
        bool gate_crossing = false;
        if (auto gate = gp::decode(ra);
            gate && (gate.value.perm() == Perm::EnterUser ||
                     gate.value.perm() == Perm::EnterPrivileged)) {
            gate_crossing = true;
            (*gateCrossings_)++;
            GP_TRACE(Gate, cycle_, thread.id(), "gate-crossing",
                     "t%u %s entry=0x%llx", thread.id(),
                     std::string(permName(gate.value.perm())).c_str(),
                     static_cast<unsigned long long>(gate.value.addr()));
        }
        thread.retire();
        thread.setIp(target.value);
        thread.stallTo(ready_at + 1);
        if (sim::Profiler::armed())
            sim::Profiler::instance().endInst(
                slotOf(thread), ready_at + 1,
                gate_crossing ? sim::ProfComp::Gate
                              : sim::ProfComp::Compute);
        return;
      }
      case Op::GETIP:
        thread.setReg(inst.rd, thread.ip());
        break;

      // Branches compare their two register operands, which the
      // assembler encodes in the rd and ra fields.
      case Op::BEQ:
        if (thread.reg(inst.rd) == ra)
            branch_delta = 1 + int64_t(inst.imm);
        break;
      case Op::BNE:
        if (!(thread.reg(inst.rd) == ra))
            branch_delta = 1 + int64_t(inst.imm);
        break;
      case Op::BLT:
        if (int64_t(thread.reg(inst.rd).bits()) < int64_t(ra.bits()))
            branch_delta = 1 + int64_t(inst.imm);
        break;
      case Op::BGE:
        if (int64_t(thread.reg(inst.rd).bits()) >= int64_t(ra.bits()))
            branch_delta = 1 + int64_t(inst.imm);
        break;

      default:
        faultThread(thread, Fault::InvalidInstruction);
        return;
    }

    // Execute-tail component: pointer-manipulation ops are the
    // capability check/decode work that actually costs cycles — the
    // explicit "check" CPI slice. Everything else is compute.
    retireInst(thread, branch_delta, elide, done,
               instClass(inst.op) == ClassPointer);
}

void
Machine::completeDeferred(uint64_t ticket, const mem::MemAccess &acc)
{
    size_t idx = deferred_.size();
    for (size_t i = 0; i < deferred_.size(); ++i) {
        if (deferred_[i].ticket == ticket) {
            idx = i;
            break;
        }
    }
    if (idx == deferred_.size()) {
        sim::warn("machine: completeDeferred: unknown ticket %llu",
                  static_cast<unsigned long long>(ticket));
        return;
    }
    const DeferredInst rec = deferred_[idx];
    deferred_.erase(deferred_.begin() + ptrdiff_t(idx));
    Thread &thread = threads_[rec.threadIndex];
    if (thread.state() != ThreadState::Pending) {
        // The watchdog killed the thread while its transaction was
        // in flight; drop the late result.
        return;
    }
    thread.unpark();
    parked_--;
    lastIssueCycle_ = cycle_; // a completion is progress, too

    if (rec.kind == DeferredKind::Fetch) {
        // Resume the issue path where the fetch left off. The decoded
        // instruction may immediately park again on a remote operand
        // (resolved in the next barrier drain round).
        finishFetch(thread, acc, rec.readyAt);
    } else {
        // The issue-side work (pointer check, check accounting,
        // instruction counters) ran before the park; the rest is the
        // synchronous path's own completion. Nothing aliases the
        // predecode array at the barrier, so a proof flush runs at
        // once.
        completeMemOp(thread, rec, acc);
        if (proofsDirty_) {
            proofsDirty_ = false;
            flushPredecode();
        }
    }
    // The thread woke up outside any cluster's issue scan.
    refreshWakes();
}

} // namespace gp::isa
