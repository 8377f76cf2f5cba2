/**
 * @file
 * Idle-cycle fast-forward equivalence: Machine::run() jumps over
 * cycles in which no thread can issue, and must leave the machine in
 * exactly the state a plain step() loop reaches — same cycle, same
 * machine stats (idle/stalled/empty cluster-cycles, domain switches,
 * ...), same registers and fault log — including when a watchdog
 * trips inside what would have been a skipped stretch.
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

} // namespace
} // namespace gp::isa
