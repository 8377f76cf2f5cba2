/**
 * @file
 * Event-driven issue loop equivalence: Machine::run() steps only the
 * clusters whose cached wake has come and jumps over cycles in which
 * no thread can issue, and must leave the machine in exactly the
 * state a plain step() loop reaches, and a profiled step() loop that
 * steps every cluster every cycle — same cycle, same machine stats
 * (idle/stalled/empty cluster-cycles, domain switches, ...), same
 * registers and fault log — across machine shapes, when a watchdog
 * trips inside what would have been a skipped stretch, when a thread
 * is changed from outside between advance() calls, and when a fault
 * handler changes a thread on another cluster in the middle of a
 * cycle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "gp/ops.h"
#include "isa/assembler.h"
#include "isa/loader.h"
#include "isa/machine.h"
#include "sim/profile.h"

namespace gp::isa {
namespace {

constexpr uint64_t kCodeBase = uint64_t(1) << 24;
constexpr uint64_t kDataBase = uint64_t(1) << 30;
constexpr unsigned kSegLog2 = 14; // 16 KiB per thread

/**
 * Memory-bound sweep: a store pass over the thread's segment, then two
 * cache-line-strided load passes folded into r9. With 16 threads the
 * working set is 16x the small cache below, so most cycles are spent
 * with every thread stalled on the external port.
 */
constexpr const char *kSweep = R"(
        movi r11, 16384
        movi r14, 0
fill:   leab r4, r1, r14
        st   r14, 0(r4)
        addi r14, r14, 64
        bne  r14, r11, fill
        movi r9, 0
        movi r12, 0
        movi r13, 2
sweep:  movi r14, 0
inner:  leab r4, r1, r14
        ld   r5, 0(r4)
        ld   r6, 8(r4)
        add  r9, r9, r5
        xor  r9, r9, r6
        addi r14, r14, 64
        bne  r14, r11, inner
        addi r12, r12, 1
        bne  r12, r13, sweep
        halt
)";

MachineConfig
sweepConfig()
{
    MachineConfig cfg; // 4 clusters x 4 thread slots
    cfg.mem.cache.setsPerBank = 16;
    return cfg;
}

/** A machine with the sweep loaded and 16 threads spawned on it. */
std::unique_ptr<Machine>
makeSweepMachine(const MachineConfig &cfg)
{
    auto m = std::make_unique<Machine>(cfg);
    Assembly a = assemble(kSweep);
    EXPECT_TRUE(a.ok) << a.error;
    LoadedProgram prog = loadProgram(m->mem(), kCodeBase, a.words);
    const unsigned threads = cfg.clusters * cfg.threadsPerCluster;
    for (unsigned i = 0; i < threads; ++i) {
        Thread *t = m->spawn(prog.execPtr);
        EXPECT_NE(t, nullptr);
        t->setReg(1, dataSegment(kDataBase + (uint64_t(i) << kSegLog2),
                                 kSegLog2));
    }
    return m;
}

/** The reference: one step() per cycle, stopping where run() does. */
void
stepLoop(Machine &m, uint64_t max_cycles)
{
    const uint64_t start = m.cycle();
    while (!m.allDone() && m.cycle() - start < max_cycles)
        m.step();
}

std::string
statDump(Machine &m)
{
    std::ostringstream os;
    m.stats().dump(os);
    return os.str();
}

/**
 * The full-scan reference: a step() loop with the profiler armed, which
 * steps every cluster every cycle whatever its cached wake says.
 */
void
profiledStepLoop(Machine &m, uint64_t max_cycles)
{
    sim::Profiler &prof = sim::Profiler::instance();
    prof.reset();
    prof.arm(m.config().clusters,
             m.config().clusters * m.config().threadsPerCluster,
             sim::ProfileConfig{});
    stepLoop(m, max_cycles);
    prof.reset();
}

/** Assert two machines are in the same architectural and stat state. */
void
expectSameState(Machine &a, Machine &b)
{
    EXPECT_EQ(a.cycle(), b.cycle());
    EXPECT_EQ(statDump(a), statDump(b));
    ASSERT_EQ(a.threads().size(), b.threads().size());
    for (size_t i = 0; i < a.threads().size(); ++i) {
        const Thread &ta = a.threads()[i];
        const Thread &tb = b.threads()[i];
        EXPECT_EQ(ta.state(), tb.state()) << "thread " << i;
        EXPECT_EQ(ta.stallUntil(), tb.stallUntil()) << "thread " << i;
        EXPECT_EQ(ta.ip().bits(), tb.ip().bits()) << "thread " << i;
        for (unsigned r = 0; r < kNumRegs; ++r) {
            EXPECT_EQ(ta.reg(r).bits(), tb.reg(r).bits())
                << "thread " << i << " r" << r;
            EXPECT_EQ(ta.reg(r).isPointer(), tb.reg(r).isPointer())
                << "thread " << i << " r" << r;
        }
    }
    ASSERT_EQ(a.faultLog().size(), b.faultLog().size());
    for (size_t i = 0; i < a.faultLog().size(); ++i) {
        EXPECT_EQ(a.faultLog()[i].fault, b.faultLog()[i].fault);
        EXPECT_EQ(a.faultLog()[i].cycle, b.faultLog()[i].cycle);
    }
}

TEST(FastForward, RunMatchesStepLoopOnMemoryBoundSweep)
{
    auto fast = makeSweepMachine(sweepConfig());
    auto ref = makeSweepMachine(sweepConfig());
    fast->run(10'000'000);
    stepLoop(*ref, 10'000'000);

    ASSERT_TRUE(ref->allDone());
    for (const Thread &t : ref->threads())
        EXPECT_EQ(t.state(), ThreadState::Halted);
    expectSameState(*fast, *ref);
    // The workload must actually have idle stretches to skip, or the
    // comparison above proves nothing.
    EXPECT_GT(ref->stats().get("stalled_cluster_cycles"), 0u);
}

TEST(FastForward, SweepSkipsIdleCycles)
{
    auto m = makeSweepMachine(sweepConfig());
    uint64_t skipped = 0;
    while (!m->allDone() && m->cycle() < 10'000'000) {
        m->step();
        if (!m->allDone())
            skipped += m->skipIdleCycles(10'000'000);
    }
    EXPECT_GT(skipped, m->cycle() / 4)
        << "a memory-bound sweep spends most cycles fully stalled";

    auto ref = makeSweepMachine(sweepConfig());
    stepLoop(*ref, 10'000'000);
    expectSameState(*m, *ref);
}

TEST(FastForward, RunLimitInsideIdleStretchMatches)
{
    // Stop both ways at many limits; some fall inside stretches the
    // fast-forward would otherwise jump over.
    for (uint64_t limit = 3000; limit < 3060; limit += 3) {
        auto fast = makeSweepMachine(sweepConfig());
        auto ref = makeSweepMachine(sweepConfig());
        EXPECT_EQ(fast->run(limit), limit);
        stepLoop(*ref, limit);
        expectSameState(*fast, *ref);
    }
}

TEST(FastForward, HungThreadTripsQuiescenceOnSameCycle)
{
    MachineConfig cfg = sweepConfig();
    cfg.watchdogQuiescence = 700;
    auto fast = makeSweepMachine(cfg);
    auto ref = makeSweepMachine(cfg);
    // Wedge one thread forever, as a lost reply would: the others
    // finish, then nothing can issue until the quiescence trip.
    fast->threads()[5].stallTo(UINT64_MAX);
    ref->threads()[5].stallTo(UINT64_MAX);
    fast->run(10'000'000);
    stepLoop(*ref, 10'000'000);

    ASSERT_TRUE(ref->watchdogTripped());
    EXPECT_TRUE(fast->watchdogTripped());
    EXPECT_EQ(ref->threads()[5].faultRecord().fault,
              Fault::WatchdogTimeout);
    expectSameState(*fast, *ref);
}

TEST(FastForward, BudgetTripOnSameCycle)
{
    // Budgets a few cycles apart: several land inside idle stretches.
    for (uint64_t budget = 4000; budget < 4040; budget += 2) {
        MachineConfig cfg = sweepConfig();
        cfg.watchdogCycles = budget;
        auto fast = makeSweepMachine(cfg);
        auto ref = makeSweepMachine(cfg);
        fast->run(10'000'000);
        stepLoop(*ref, 10'000'000);

        ASSERT_TRUE(ref->watchdogTripped()) << "budget " << budget;
        EXPECT_TRUE(fast->watchdogTripped()) << "budget " << budget;
        EXPECT_EQ(fast->cycle(), budget);
        expectSameState(*fast, *ref);
    }
}

TEST(FastForward, RunMatchesStepLoopAcrossShapes)
{
    // Every slot filled. The 3-slot shapes pin the round-robin wrap
    // at a slot count that is not a power of two; issue width 2 lets
    // a cluster issue for two threads in one stepped cycle. A plain
    // step() loop skips no cycle but still skips clusters by their
    // cached wake; the profiled loop steps every cluster, so it also
    // checks the cached cluster wakes themselves.
    for (unsigned clusters : {1u, 2u, 4u}) {
        for (unsigned slots : {1u, 3u, 4u}) {
            for (unsigned width : {1u, 2u}) {
                SCOPED_TRACE(testing::Message()
                             << clusters << " clusters x " << slots
                             << " slots, issue width " << width);
                MachineConfig cfg = sweepConfig();
                cfg.clusters = clusters;
                cfg.threadsPerCluster = slots;
                cfg.issueWidth = width;
                auto fast = makeSweepMachine(cfg);
                auto ref = makeSweepMachine(cfg);
                auto full = makeSweepMachine(cfg);
                fast->run(10'000'000);
                stepLoop(*ref, 10'000'000);
                profiledStepLoop(*full, 10'000'000);
                ASSERT_TRUE(ref->allDone());
                expectSameState(*fast, *ref);
                expectSameState(*fast, *full);
            }
        }
    }
}

TEST(FastForward, ThreeSlotRoundRobinMatchesPinnedCounts)
{
    // The step() reference shares the cursor with run(), so pin one
    // non-power-of-two shape to the counts of the per-cluster cursor
    // implementation it replaced.
    MachineConfig cfg = sweepConfig();
    cfg.clusters = 2;
    cfg.threadsPerCluster = 3;
    auto m = makeSweepMachine(cfg);
    m->run(10'000'000);
    EXPECT_EQ(m->cycle(), 67918u);
    EXPECT_EQ(m->stats().get("domain_switches"), 10691u);
    EXPECT_EQ(m->stats().get("stalled_cluster_cycles"), 108108u);
    EXPECT_EQ(m->stats().get("empty_cluster_cycles"), 8u);
}

TEST(FastForward, StallFromOutsideBetweenAdvanceCallsIsHonoured)
{
    // Wedge a thread from outside, let the others finish, then wake
    // it again from outside: each advance() must see the change, or
    // the unwedged thread's cluster would keep its stale wake and the
    // machine would skip to the limit.
    auto fast = makeSweepMachine(sweepConfig());
    auto ref = makeSweepMachine(sweepConfig());
    EXPECT_EQ(fast->advance(2000), 2000u);
    stepLoop(*ref, 2000);
    fast->threads()[5].stallTo(UINT64_MAX);
    ref->threads()[5].stallTo(UINT64_MAX);
    const uint64_t retired = fast->threads()[5].instsRetired();
    fast->advance(600'000);
    stepLoop(*ref, 600'000);
    expectSameState(*fast, *ref);
    // Both loops share the wake cache, so also check the wedge itself.
    EXPECT_EQ(fast->threads()[5].state(), ThreadState::Ready);
    EXPECT_EQ(fast->threads()[5].instsRetired(), retired);
    fast->threads()[5].stallTo(fast->cycle());
    ref->threads()[5].stallTo(ref->cycle());
    fast->run(10'000'000);
    stepLoop(*ref, 10'000'000);

    ASSERT_TRUE(ref->allDone());
    EXPECT_EQ(ref->threads()[5].state(), ThreadState::Halted);
    expectSameState(*fast, *ref);
}

/** Spins through a multiply loop, then halts. */
constexpr const char *kSpinner = R"(
        movi r10, 0
        movi r11, 300
spin:   mul  r12, r10, r10
        addi r10, r10, 1
        bne  r10, r11, spin
        halt
)";

/** Faults at once on a load through an integer, then spins. */
constexpr const char *kEarlyFaulter = R"(
        ld   r3, 0(r7)
        movi r10, 0
        movi r11, 40
spin:   addi r10, r10, 1
        bne  r10, r11, spin
        halt
)";

/** Spins for a while, then faults on a load through an integer. */
constexpr const char *kLateFaulter = R"(
        movi r10, 0
        movi r11, 25
spin:   addi r10, r10, 1
        bne  r10, r11, spin
        ld   r3, 0(r7)
        halt
)";

enum class HandlerAct
{
    Halt,   //!< the handler halts the spinning thread on cluster 2
    Resume, //!< the handler resumes the faulted thread on cluster 2
};

/**
 * A late faulter on cluster 0, a victim and a spinner on cluster 2 and
 * sweep threads on clusters 1 and 3. The late faulter's fault runs a
 * handler that changes the victim in the middle of the cycle, before
 * cluster 2 is stepped: it halts the spinning victim, or resumes the
 * early-faulted one past its faulting load, able to issue in that very
 * cycle.
 */
std::unique_ptr<Machine>
makeHandlerMachine(HandlerAct act)
{
    MachineConfig cfg = sweepConfig();
    cfg.threadsPerCluster = 2;
    auto m = std::make_unique<Machine>(cfg);
    Machine &mr = *m;
    auto load = [&](const char *src, uint64_t base) {
        Assembly a = assemble(src);
        EXPECT_TRUE(a.ok) << a.error;
        return loadProgram(mr.mem(), base, a.words).execPtr;
    };
    Thread *faulter =
        m->spawnOnCluster(0, load(kLateFaulter, kCodeBase));
    Thread *victim = m->spawnOnCluster(
        2, load(act == HandlerAct::Halt ? kSpinner : kEarlyFaulter,
                kCodeBase + 0x1000));
    // A second thread on the victim's cluster, so that resuming or
    // halting the victim changes the cluster's interleaving.
    EXPECT_NE(m->spawnOnCluster(2, load(kSpinner, kCodeBase + 0x3000)),
              nullptr);
    const Word sweep = load(kSweep, kCodeBase + 0x2000);
    for (unsigned c : {1u, 3u}) {
        Thread *t = m->spawnOnCluster(c, sweep);
        t->setReg(1, dataSegment(kDataBase + (uint64_t(c) << kSegLog2),
                                 kSegLog2));
    }
    EXPECT_TRUE(faulter && victim);
    m->setFaultHandler([&mr, faulter, victim,
                        act](Thread &t, const FaultRecord &) {
        if (&t != faulter)
            return FaultAction::Terminate;
        if (act == HandlerAct::Halt) {
            victim->halt();
        } else {
            victim->setIp(gp::leaUnchecked(victim->ip(), 8));
            victim->resumeFromFault();
            victim->stallTo(mr.cycle());
        }
        return FaultAction::Terminate;
    });
    return m;
}

struct PinnedCounts
{
    uint64_t cycles;
    uint64_t instructions;
    uint64_t stalled;
    uint64_t empty;
    uint64_t switches;
};

TEST(FastForward, FaultHandlerChangesAnotherClusterMidCycle)
{
    const struct
    {
        HandlerAct act;
        PinnedCounts pinned; // counts of the slot-scanning issue loop
    } cases[] = {
        {HandlerAct::Halt, {18900, 10205, 30891, 34504, 17}},
        {HandlerAct::Resume, {20073, 10280, 34922, 35090, 125}},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.act == HandlerAct::Halt ? "halt" : "resume");
        auto fast = makeHandlerMachine(c.act);
        auto ref = makeHandlerMachine(c.act);
        fast->run(10'000'000);
        stepLoop(*ref, 10'000'000);
        ASSERT_TRUE(ref->allDone());
        expectSameState(*fast, *ref);

        Thread &victim = fast->threads()[2 * 2];
        if (c.act == HandlerAct::Halt) {
            EXPECT_EQ(victim.state(), ThreadState::Halted);
            EXPECT_LT(victim.instsRetired(), 300u * 3);
        } else {
            EXPECT_EQ(victim.state(), ThreadState::Halted);
            EXPECT_EQ(fast->faultLog().size(), 2u);
        }
        sim::StatGroup &s = fast->stats();
        EXPECT_EQ(fast->cycle(), c.pinned.cycles);
        EXPECT_EQ(s.get("instructions"), c.pinned.instructions);
        EXPECT_EQ(s.get("stalled_cluster_cycles"), c.pinned.stalled);
        EXPECT_EQ(s.get("empty_cluster_cycles"), c.pinned.empty);
        EXPECT_EQ(s.get("domain_switches"), c.pinned.switches);
    }
}

TEST(FastForward, FaultHandlerHaltsALaterSlotOfItsOwnClusterMidScan)
{
    // Issue width 2, one cluster: at cycle 0 the scan issues slot 0,
    // whose load faults at once, and its handler halts the thread in
    // slot 1 before the same scan reaches it. The scan must see the
    // halt: the victim never issues.
    MachineConfig cfg = sweepConfig();
    cfg.clusters = 1;
    cfg.threadsPerCluster = 2;
    cfg.issueWidth = 2;
    Machine m(cfg);
    auto load = [&](const char *src, uint64_t base) {
        Assembly a = assemble(src);
        EXPECT_TRUE(a.ok) << a.error;
        return loadProgram(m.mem(), base, a.words).execPtr;
    };
    Thread *faulter = m.spawnOnCluster(0, load(kEarlyFaulter, kCodeBase));
    Thread *victim =
        m.spawnOnCluster(0, load(kSpinner, kCodeBase + 0x1000));
    ASSERT_TRUE(faulter && victim);
    m.setFaultHandler([victim](Thread &, const FaultRecord &) {
        victim->halt();
        return FaultAction::Terminate;
    });
    m.run(100'000);
    ASSERT_TRUE(m.allDone());
    EXPECT_EQ(faulter->state(), ThreadState::Faulted);
    EXPECT_EQ(victim->state(), ThreadState::Halted);
    EXPECT_EQ(victim->instsRetired(), 0u);
    EXPECT_EQ(m.stats().get("instructions"), 1u) << "the faulting load";
}

} // namespace
} // namespace gp::isa
