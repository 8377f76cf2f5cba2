/**
 * @file
 * Tests for functional-only execution (MachineConfig::fastMode,
 * gpsim --fast): the zero-latency FastPort must leave every
 * architectural result — final thread state, fault kind, retired
 * instruction count, and registers — identical to a timed run. Cycle
 * counts are deliberately left out of the comparison: the mode has no
 * timing model.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "gp/ops.h"
#include "isa/assembler.h"
#include "isa/loader.h"
#include "isa/machine.h"

namespace gp::isa {
namespace {

constexpr uint64_t kCodeBase = uint64_t(1) << 24;

/** Everything architectural about a finished run. */
struct Outcome
{
    ThreadState state = ThreadState::Idle;
    Fault fault = Fault::None;
    uint64_t instructions = 0;
    std::array<std::pair<uint64_t, bool>, kNumRegs> regs{};
};

MachineConfig
baseConfig()
{
    MachineConfig cfg;
    cfg.mem.cache.setsPerBank = 64;
    return cfg;
}

Outcome
runWith(const MachineConfig &cfg, const std::string &src,
        const std::vector<std::pair<unsigned, Word>> &regs)
{
    Machine machine(cfg);
    Assembly a = assemble(src);
    EXPECT_TRUE(a.ok) << a.error;
    LoadedProgram prog = loadProgram(machine.mem(), kCodeBase, a.words);
    Thread *t = machine.spawn(prog.execPtr);
    EXPECT_NE(t, nullptr);
    for (const auto &[i, w] : regs)
        t->setReg(i, w);
    machine.run(500000);

    Outcome o;
    o.state = t->state();
    if (o.state == ThreadState::Faulted)
        o.fault = t->faultRecord().fault;
    o.instructions = machine.stats().get("instructions");
    for (unsigned r = 0; r < kNumRegs; ++r)
        o.regs[r] = {t->reg(r).bits(), t->reg(r).isPointer()};
    return o;
}

TEST(FastMode, MatchesArchitecturalOutcome)
{
    // A hot loop over the ALU, load/store, LEA, and branch paths.
    constexpr const char *kHotLoop = R"(
        movi r3, 0
        movi r4, 0
        movi r5, 200
    loop:
        addi r3, r3, 7
        andi r6, r3, 255
        shli r6, r6, 3
        lea r7, r1, r6
        st r3, 0(r7)
        ld r8, 0(r7)
        add r4, r4, r8
        leai r9, r1, 8
        ld r9, 0(r9)
        xor r4, r4, r9
        addi r5, r5, -1
        bne r5, r0, loop
        halt
    )";
    auto seg = makePointer(Perm::ReadWrite, 12, uint64_t(1) << 30);
    ASSERT_TRUE(seg);
    const std::vector<std::pair<unsigned, Word>> regs = {{1, seg.value}};

    MachineConfig timed = baseConfig();
    MachineConfig fast = baseConfig();
    fast.fastMode = true;

    const Outcome t = runWith(timed, kHotLoop, regs);
    const Outcome f = runWith(fast, kHotLoop, regs);
    EXPECT_EQ(t.state, ThreadState::Halted);
    EXPECT_EQ(t.state, f.state);
    EXPECT_EQ(t.fault, f.fault);
    EXPECT_EQ(t.instructions, f.instructions);
    EXPECT_EQ(t.regs, f.regs);
}

TEST(FastMode, FaultKindMatches)
{
    // Stores walk off the end of a 16-byte segment: both runs must
    // take the same fault with the same registers.
    constexpr const char *kFaulting = R"(
        movi r3, 0
    loop:
        shli r7, r3, 3
        lea r8, r1, r7
        st r3, 0(r8)
        addi r3, r3, 1
        beq r0, r0, loop
    )";
    auto seg = makePointer(Perm::ReadWrite, 4, uint64_t(1) << 30);
    ASSERT_TRUE(seg);
    const std::vector<std::pair<unsigned, Word>> regs = {{1, seg.value}};

    MachineConfig timed = baseConfig();
    MachineConfig fast = baseConfig();
    fast.fastMode = true;

    const Outcome t = runWith(timed, kFaulting, regs);
    const Outcome f = runWith(fast, kFaulting, regs);
    EXPECT_EQ(t.state, f.state);
    EXPECT_EQ(t.fault, f.fault);
    EXPECT_EQ(t.regs, f.regs);
}

} // namespace
} // namespace gp::isa
