/**
 * @file
 * Experiment P1: host simulation speed (the perf-CI anchor).
 *
 * Unlike every other bench, P1's primary metric is *host* work per
 * simulated instruction: it runs three representative workloads —
 * the Fig. 5 multithreaded memory sweep, the F7 microkernel server
 * chain, and a fault-injection campaign — and reports simulated
 * instructions (or runs) per host second, timed tightly around the
 * simulation loop so loader/assembler setup is excluded.
 *
 * The output is split into two tables on purpose:
 *
 *  - "P1 signature (deterministic)": simulated cycles, instruction
 *    counts, and campaign outcome classes. These are pure functions
 *    of the simulator and must be *bit-identical* on every host and
 *    every commit that claims to be observationally invisible.
 *    tools/perfgate.py hard-fails CI when they drift from the
 *    checked-in bench/BENCH_PERF.json baseline.
 *
 *  - "P1 host speed (host-dependent)": wall time and derived rates.
 *    Every arm runs 5 times in-process (arms interleaved); each row
 *    gives the median wall time, the rates derived from it, the
 *    minimum, and the spread (max - min over the median). The
 *    deterministic table must be identical in every repetition
 *    (fatal otherwise). tools/perfgate.py fails a median
 *    wall time above 2x the committed baseline's and warns on rates;
 *    the baseline documents the reference machine's numbers.
 *
 * See docs/ARCHITECTURE.md ("Performance & perf-CI") for the
 * conventions this bench enforces.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/campaign.h"
#include "isa/assembler.h"
#include "isa/loader.h"
#include "isa/machine.h"
#include "os/kernel.h"
#include "sim/log.h"
#include "sim/profile.h"
#include "verify/verifier.h"

namespace {

using namespace gp;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ArmResult
{
    uint64_t cycles = 0;       //!< simulated cycles (deterministic)
    uint64_t instructions = 0; //!< simulated instructions (det.)
    double wallSeconds = 0;    //!< host time around the sim loop only
};

/**
 * Arm 1: the Fig. 5 memory-system workload at its heaviest point
 * (16 threads, 4 banks) plus the most serialized one (16 threads,
 * 1 bank), so both the hit-dominated and conflict-dominated paths
 * are exercised. Workload mirrors bench_fig5_map_memsys.
 */
ArmResult
runFig5Arm()
{
    ArmResult r;
    const std::string src = R"(
        movi r12, 0
        movi r13, 8
        outer:
        leabi r2, r1, 0
        movi r10, 0
        movi r11, 127
        inner:
        ld r3, 0(r2)
        ld r4, 8(r2)
        ld r5, 16(r2)
        ld r6, 24(r2)
        leai r2, r2, 32
        addi r10, r10, 1
        bne r10, r11, inner
        addi r12, r12, 1
        bne r12, r13, outer
        halt
    )";
    auto assembly = isa::assemble(src);
    if (!assembly.ok)
        sim::fatal("P1: %s", assembly.error.c_str());

    for (unsigned banks : {4u, 1u}) {
        isa::MachineConfig cfg;
        cfg.mem.cache = gp::bench::mapCache();
        cfg.mem.cache.banks = banks;
        isa::Machine machine(cfg);
        for (unsigned i = 0; i < 16; ++i) {
            const uint64_t code_base =
                ((uint64_t(i) + 1) << 20) + uint64_t(i) * 128;
            auto prog = isa::loadProgram(machine.mem(), code_base,
                                         assembly.words);
            isa::Thread *t = machine.spawn(prog.execPtr);
            if (!t)
                sim::fatal("P1: out of thread slots");
            t->setReg(1,
                      isa::dataSegment(((uint64_t(i) + 1) << 30) +
                                           uint64_t(i) * 4096,
                                       12));
        }
        const auto t0 = Clock::now();
        machine.run(50'000'000);
        r.wallSeconds += secondsSince(t0);
        r.cycles += machine.cycle();
        r.instructions += machine.stats().get("instructions");
    }
    return r;
}

/**
 * Arm 2: the F7 microkernel chain — a caller crossing two protected
 * subsystems per request via enter pointers, exercising the OS
 * layer, gate crossings, and the fault-free control-flow paths.
 */
ArmResult
runMicrokernelArm()
{
    constexpr int kRequests = 512;

    os::Kernel kernel;
    auto state = kernel.segments().allocate(4096, Perm::ReadWrite);
    auto server = kernel.buildSubsystem(R"(
        getip r2
        leabi r2, r2, 0
        ld r3, 0(r2)
        ld r4, 0(r3)
        addi r4, r4, 1
        st r4, 0(r3)
        jmp r12
    )",
                                        {state.value});
    auto front_table =
        kernel.segments().allocate(4096, Perm::ReadWrite);
    auto front = kernel.buildSubsystem(R"(
        getip r2
        leabi r2, r2, 0
        ld r3, 0(r2)
        ld r4, 8(r2)
        ld r5, 0(r3)
        getip r12
        leai r12, r12, 24
        jmp r4
        jmp r14
    )",
                                       {front_table.value,
                                        server ? server.value.enterPtr
                                               : Word{}});
    if (!state || !server || !front_table || !front)
        sim::fatal("P1: microkernel setup failed");

    auto caller = kernel.loadAssembly(R"(
        movi r10, 0
        movi r11, )" + std::to_string(kRequests) +
                                      R"(
        loop:
        getip r14
        leai r14, r14, 24
        jmp r1
        addi r10, r10, 1
        bne r10, r11, loop
        halt
    )");
    if (!caller)
        sim::fatal("P1: caller failed");
    isa::Thread *t =
        kernel.spawn(caller.value.execPtr,
                     {{1, front.value.enterPtr}});
    if (!t)
        sim::fatal("P1: no slot");

    ArmResult r;
    const auto t0 = Clock::now();
    kernel.machine().run(50'000'000);
    r.wallSeconds = secondsSince(t0);
    if (t->state() != isa::ThreadState::Halted)
        sim::fatal("P1: chain faulted: %s",
                   std::string(faultName(t->faultRecord().fault))
                       .c_str());
    r.cycles = kernel.machine().cycle();
    r.instructions = kernel.machine().stats().get("instructions");
    return r;
}

/**
 * Arm 4: the profiler contract. Runs the heaviest Fig. 5 point
 * (16 threads, 4 banks) twice — profiling off, then fully on — and
 * fatals unless the simulated signature is bit-identical and the
 * profiled run's CPI components sum exactly to clusters x cycles.
 * The off run's wall time lands in the host table next to the on
 * run's, making any host-speed cost of the disarmed hooks (which
 * must be one static-bool branch per site) visible to perfgate.
 */
struct ProfiledArm
{
    ArmResult off;
    ArmResult on;
};

ProfiledArm
runFig5ProfiledArm()
{
    const std::string src = R"(
        movi r12, 0
        movi r13, 8
        outer:
        leabi r2, r1, 0
        movi r10, 0
        movi r11, 127
        inner:
        ld r3, 0(r2)
        ld r4, 8(r2)
        ld r5, 16(r2)
        ld r6, 24(r2)
        leai r2, r2, 32
        addi r10, r10, 1
        bne r10, r11, inner
        addi r12, r12, 1
        bne r12, r13, outer
        halt
    )";
    auto assembly = isa::assemble(src);
    if (!assembly.ok)
        sim::fatal("P1: %s", assembly.error.c_str());

    auto run_once = [&](bool profiled) {
        ArmResult r;
        isa::MachineConfig cfg;
        cfg.mem.cache = gp::bench::mapCache();
        cfg.mem.cache.banks = 4;
        isa::Machine machine(cfg);
        if (profiled) {
            sim::ProfileConfig pcfg;
            pcfg.pc = pcfg.domain = pcfg.interval = pcfg.stacks = true;
            sim::Profiler::instance().arm(
                cfg.clusters, cfg.clusters * cfg.threadsPerCluster,
                pcfg);
        }
        for (unsigned i = 0; i < 16; ++i) {
            const uint64_t code_base =
                ((uint64_t(i) + 1) << 20) + uint64_t(i) * 128;
            auto prog = isa::loadProgram(machine.mem(), code_base,
                                         assembly.words);
            isa::Thread *t = machine.spawn(prog.execPtr);
            if (!t)
                sim::fatal("P1: out of thread slots");
            t->setReg(1,
                      isa::dataSegment(((uint64_t(i) + 1) << 30) +
                                           uint64_t(i) * 4096,
                                       12));
        }
        const auto t0 = Clock::now();
        machine.run(50'000'000);
        r.wallSeconds = secondsSince(t0);
        r.cycles = machine.cycle();
        r.instructions = machine.stats().get("instructions");
        if (profiled)
            sim::Profiler::instance().disarm();
        return r;
    };

    ProfiledArm arm;
    arm.off = run_once(false);
    arm.on = run_once(true);

    if (arm.off.cycles != arm.on.cycles ||
        arm.off.instructions != arm.on.instructions)
        sim::fatal("P1: profiling changed simulated behaviour: "
                   "%llu/%llu cycles, %llu/%llu instructions",
                   (unsigned long long)arm.off.cycles,
                   (unsigned long long)arm.on.cycles,
                   (unsigned long long)arm.off.instructions,
                   (unsigned long long)arm.on.instructions);

    const auto &prof = sim::Profiler::instance();
    uint64_t sum = 0;
    for (unsigned i = 0; i < sim::kProfCompCount; ++i)
        sum += prof.comp(sim::ProfComp(i));
    if (sum != prof.clusterCycles() ||
        sum != uint64_t(prof.clusters()) * prof.cycles())
        sim::fatal("P1: CPI components sum to %llu, expected %llu",
                   (unsigned long long)sum,
                   (unsigned long long)prof.clusterCycles());
    if (prof.instructions() != arm.on.instructions)
        sim::fatal("P1: profiler counted %llu instructions, "
                   "machine %llu",
                   (unsigned long long)prof.instructions(),
                   (unsigned long long)arm.on.instructions);
    return arm;
}

/**
 * Arm 5: verifier-driven check elision (ISSUE 7). An elide-friendly
 * variant of the Fig. 5 sweep — constant-offset loads plus fresh
 * (non-loop-carried) pointer arithmetic the verifier can discharge —
 * runs once with full checks and once with the proof registered.
 * Deterministic contract: instruction counts are identical, elide-on
 * cycles never exceed elide-off cycles, and the elided/executed/saved
 * counters are pure functions of the simulator. The two host rows
 * make the host-speed gain of skipping proven check work visible.
 */
struct ElideArm
{
    ArmResult off;
    ArmResult on;
    uint64_t elided = 0;
    uint64_t executed = 0;
    uint64_t cyclesSaved = 0;
};

ElideArm
runFig5ElideArm()
{
    const std::string src = R"(
        movi r10, 0
        movi r11, 1024
        loop:
        leabi r2, r1, 0
        ld r3, 0(r2)
        ld r4, 8(r2)
        ld r5, 16(r2)
        ld r6, 24(r2)
        leai r7, r2, 32
        addi r10, r10, 1
        bne r10, r11, loop
        halt
    )";
    auto assembly = isa::assemble(src);
    if (!assembly.ok)
        sim::fatal("P1: %s", assembly.error.c_str());

    verify::VerifyOptions vopts;
    vopts.entryRegs = verify::defaultEntryRegs(4096);
    const verify::VerifyResult vres =
        verify::verifyProgram(assembly, vopts);

    ElideArm arm;
    auto run_once = [&](bool elide) {
        ArmResult r;
        isa::MachineConfig cfg;
        cfg.mem.cache = gp::bench::mapCache();
        cfg.mem.cache.banks = 4;
        cfg.elideChecks = elide;
        isa::Machine machine(cfg);
        for (unsigned i = 0; i < 16; ++i) {
            const uint64_t code_base =
                ((uint64_t(i) + 1) << 20) + uint64_t(i) * 128;
            if (elide)
                machine.registerElideProof(verify::makeElideProof(
                    vres, assembly.words, false, code_base));
            auto prog = isa::loadProgram(machine.mem(), code_base,
                                         assembly.words);
            isa::Thread *t = machine.spawn(prog.execPtr);
            if (!t)
                sim::fatal("P1: out of thread slots");
            t->setReg(1,
                      isa::dataSegment(((uint64_t(i) + 1) << 30) +
                                           uint64_t(i) * 4096,
                                       12));
        }
        const auto t0 = Clock::now();
        machine.run(50'000'000);
        r.wallSeconds = secondsSince(t0);
        r.cycles = machine.cycle();
        r.instructions = machine.stats().get("instructions");
        if (elide) {
            arm.elided =
                machine.stats().get("elide_checks_elided");
            arm.executed =
                machine.stats().get("elide_checks_executed");
            arm.cyclesSaved =
                machine.stats().get("elide_cycles_saved");
        }
        return r;
    };

    arm.off = run_once(false);
    arm.on = run_once(true);

    if (arm.off.instructions != arm.on.instructions)
        sim::fatal("P1: elision changed the instruction count: "
                   "%llu -> %llu",
                   (unsigned long long)arm.off.instructions,
                   (unsigned long long)arm.on.instructions);
    if (arm.on.cycles > arm.off.cycles)
        sim::fatal("P1: elision made the run slower: %llu -> %llu "
                   "cycles",
                   (unsigned long long)arm.off.cycles,
                   (unsigned long long)arm.on.cycles);
    if (arm.elided == 0 || arm.cyclesSaved == 0)
        sim::fatal("P1: elide arm proved nothing (elided=%llu, "
                   "saved=%llu)",
                   (unsigned long long)arm.elided,
                   (unsigned long long)arm.cyclesSaved);
    return arm;
}

/**
 * Arm 6: functional-only --fast mode. The heaviest Fig. 5 point runs
 * twice — on the timed memory system and with MachineConfig::fastMode
 * — timed separately. Deterministic contract (fatal on violation):
 * --fast preserves the instruction count. The host row exposes the
 * speedup; perfgate additionally requires the in-run fig5-fast rate
 * to be >= 2x the in-run fig5-memsys rate (a same-host ratio, robust
 * to machine differences).
 */
struct FastArm
{
    ArmResult timed;
    ArmResult fast;
};

FastArm
runFig5FastArm()
{
    const std::string src = R"(
        movi r12, 0
        movi r13, 8
        outer:
        leabi r2, r1, 0
        movi r10, 0
        movi r11, 127
        inner:
        ld r3, 0(r2)
        ld r4, 8(r2)
        ld r5, 16(r2)
        ld r6, 24(r2)
        leai r2, r2, 32
        addi r10, r10, 1
        bne r10, r11, inner
        addi r12, r12, 1
        bne r12, r13, outer
        halt
    )";
    auto assembly = isa::assemble(src);
    if (!assembly.ok)
        sim::fatal("P1: %s", assembly.error.c_str());

    auto run_once = [&](bool fast) {
        ArmResult r;
        isa::MachineConfig cfg;
        cfg.mem.cache = gp::bench::mapCache();
        cfg.mem.cache.banks = 4;
        cfg.fastMode = fast;
        isa::Machine machine(cfg);
        for (unsigned i = 0; i < 16; ++i) {
            const uint64_t code_base =
                ((uint64_t(i) + 1) << 20) + uint64_t(i) * 128;
            auto prog = isa::loadProgram(machine.mem(), code_base,
                                         assembly.words);
            isa::Thread *t = machine.spawn(prog.execPtr);
            if (!t)
                sim::fatal("P1: out of thread slots");
            t->setReg(1,
                      isa::dataSegment(((uint64_t(i) + 1) << 30) +
                                           uint64_t(i) * 4096,
                                       12));
        }
        const auto t0 = Clock::now();
        machine.run(50'000'000);
        r.wallSeconds = secondsSince(t0);
        r.cycles = machine.cycle();
        r.instructions = machine.stats().get("instructions");
        return r;
    };

    FastArm arm;
    arm.timed = run_once(false);
    arm.fast = run_once(true);

    if (arm.fast.instructions != arm.timed.instructions)
        sim::fatal("P1: fast mode changed the instruction count: "
                   "%llu -> %llu",
                   (unsigned long long)arm.timed.instructions,
                   (unsigned long long)arm.fast.instructions);
    return arm;
}

/** Arm 3: a small deterministic fault campaign (hardened config). */
struct CampaignArm
{
    fault::CampaignRunner::Totals totals;
    uint64_t goldenCycles = 0;
    double wallSeconds = 0;
};

CampaignArm
runCampaignArm()
{
    fault::CampaignConfig cfg;
    cfg.seed = 12345;
    cfg.runs = 24;
    cfg.ecc = mem::EccMode::Secded;
    cfg.walkRetries = 2;
    cfg.faults.rate[unsigned(sim::FaultSite::MemDataBit)] = 3e-4;
    cfg.faults.rate[unsigned(sim::FaultSite::MemTagBit)] = 1e-4;
    cfg.faults.rate[unsigned(sim::FaultSite::TlbCorrupt)] = 1e-3;
    cfg.faults.rate[unsigned(sim::FaultSite::PtWalkTransient)] = 2e-2;

    fault::CampaignRunner runner(cfg);
    CampaignArm arm;
    const auto t0 = Clock::now();
    arm.totals = runner.runAll();
    arm.wallSeconds = secondsSince(t0);
    arm.goldenCycles = runner.goldenCycles();
    return arm;
}

/** Every arm, run once. */
struct P1Run
{
    ArmResult fig5;
    ArmResult mk;
    CampaignArm camp;
    ProfiledArm prof;
    ElideArm elide;
    FastArm fast;
};

P1Run
runAllArms()
{
    P1Run r;
    r.fig5 = runFig5Arm();
    r.mk = runMicrokernelArm();
    r.camp = runCampaignArm();
    r.prof = runFig5ProfiledArm();
    r.elide = runFig5ElideArm();
    r.fast = runFig5FastArm();
    return r;
}

using Rows = std::vector<std::vector<std::string>>;

/** The deterministic signature rows of one run of every arm. */
Rows
signatureRows(const P1Run &r)
{
    Rows rows;
    rows.push_back(
        {"fig5-memsys",
         gp::bench::fmt("%llu", (unsigned long long)r.fig5.cycles),
         gp::bench::fmt("%llu", (unsigned long long)r.fig5.instructions),
         "-"});
    rows.push_back(
        {"f7-microkernel",
         gp::bench::fmt("%llu", (unsigned long long)r.mk.cycles),
         gp::bench::fmt("%llu", (unsigned long long)r.mk.instructions),
         "-"});
    const fault::CampaignRunner::Totals &t = r.camp.totals;
    rows.push_back(
        {"fault-campaign",
         gp::bench::fmt("%llu", (unsigned long long)r.camp.goldenCycles),
         gp::bench::fmt("%llu", (unsigned long long)t.runs),
         gp::bench::fmt(
             "masked=%llu corrected=%llu detected=%llu sdc=%llu "
             "hang=%llu",
             (unsigned long long)t.outcome(fault::Outcome::Masked),
             (unsigned long long)t.outcome(fault::Outcome::Corrected),
             (unsigned long long)t.outcome(
                 fault::Outcome::DetectedFault),
             (unsigned long long)t.outcome(fault::Outcome::Sdc),
             (unsigned long long)t.outcome(fault::Outcome::CrashHang))});
    rows.push_back(
        {"fig5-profiled",
         gp::bench::fmt("%llu", (unsigned long long)r.prof.on.cycles),
         gp::bench::fmt("%llu",
                        (unsigned long long)r.prof.on.instructions),
         "profiled==off; cpi-sum exact"});
    rows.push_back(
        {"fig5-elide",
         gp::bench::fmt("%llu", (unsigned long long)r.elide.on.cycles),
         gp::bench::fmt("%llu",
                        (unsigned long long)r.elide.on.instructions),
         gp::bench::fmt("off=%llu saved=%llu elided=%llu "
                        "executed=%llu",
                        (unsigned long long)r.elide.off.cycles,
                        (unsigned long long)r.elide.cyclesSaved,
                        (unsigned long long)r.elide.elided,
                        (unsigned long long)r.elide.executed)});
    rows.push_back(
        {"fig5-fast",
         gp::bench::fmt("%llu", (unsigned long long)r.fast.fast.cycles),
         gp::bench::fmt("%llu",
                        (unsigned long long)r.fast.fast.instructions),
         "functional-only; timing model bypassed"});
    return rows;
}

/**
 * Repetitions of every arm. The median of five absorbs a burst of host
 * load that hits one shot.
 */
constexpr unsigned kReps = 5;

/** Median, minimum and spread of one arm's wall times. */
struct WallStats
{
    double median = 0;
    double min = 0;
    double spread = 0; //!< (max - min) / median
};

WallStats
wallStats(std::vector<double> s)
{
    std::sort(s.begin(), s.end());
    const size_t n = s.size();
    WallStats w;
    w.median = n % 2 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2;
    w.min = s.front();
    w.spread = w.median > 0 ? (s.back() - s.front()) / w.median : 0;
    return w;
}

} // namespace

int
main(int argc, char **argv)
{
    gp::bench::init(argc, argv);

    // Each repetition runs every arm once, so host-load bursts spread
    // over all arms instead of landing on one arm's repetitions.
    std::vector<P1Run> runs;
    for (unsigned i = 0; i < kReps; ++i)
        runs.push_back(runAllArms());

    // ---- Table 1: deterministic signature (hard CI gate). --------
    // Every cell here is a pure function of the simulator: any drift
    // means a change was NOT observationally invisible — and that
    // includes drift between repetitions of one process.
    const Rows signature = signatureRows(runs.front());
    for (unsigned i = 1; i < kReps; ++i)
        if (signatureRows(runs[i]) != signature)
            sim::fatal("P1: repetition %u changed the deterministic "
                       "signature",
                       i + 1);
    gp::bench::Table det(
        "P1 signature (deterministic)",
        {"arm", "cycles", "instructions", "extra"});
    for (const auto &row : signature)
        det.addRow(row);
    det.print();

    // ---- Table 2: host speed (ratio-gated on the median). --------
    // "wall ms" is the median over the repetitions; the rates derive
    // from it. min ms and spread % (max - min over the median) show
    // how far one shot could have strayed.
    gp::bench::Table host(
        "P1 host speed (host-dependent)",
        {"arm", "wall ms", "sim Minst/s", "sim Mcycles/s", "min ms",
         "spread %"});
    auto hostRow = [&](const char *name, auto arm) {
        std::vector<double> walls;
        for (const P1Run &r : runs)
            walls.push_back(arm(r).wallSeconds);
        const WallStats w = wallStats(walls);
        const ArmResult &a = arm(runs.front());
        host.addRow(
            {name, gp::bench::fmt("%.1f", w.median * 1e3),
             gp::bench::fmt("%.2f",
                            double(a.instructions) / w.median / 1e6),
             gp::bench::fmt("%.2f", double(a.cycles) / w.median / 1e6),
             gp::bench::fmt("%.1f", w.min * 1e3),
             gp::bench::fmt("%.0f", w.spread * 100)});
    };
    hostRow("fig5-memsys", [](const P1Run &r) { return r.fig5; });
    hostRow("f7-microkernel", [](const P1Run &r) { return r.mk; });
    hostRow("fig5-prof-off", [](const P1Run &r) { return r.prof.off; });
    hostRow("fig5-prof-on", [](const P1Run &r) { return r.prof.on; });
    hostRow("fig5-elide-off",
            [](const P1Run &r) { return r.elide.off; });
    hostRow("fig5-elide-on", [](const P1Run &r) { return r.elide.on; });
    hostRow("fig5-fast", [](const P1Run &r) { return r.fast.fast; });
    std::vector<double> camp_walls;
    for (const P1Run &r : runs)
        camp_walls.push_back(r.camp.wallSeconds);
    const WallStats cw = wallStats(camp_walls);
    host.addRow({"fault-campaign", gp::bench::fmt("%.1f", cw.median * 1e3),
                 gp::bench::fmt("%.1f runs/s",
                                double(runs.front().camp.totals.runs) /
                                    cw.median),
                 "-", gp::bench::fmt("%.1f", cw.min * 1e3),
                 gp::bench::fmt("%.0f", cw.spread * 100)});
    host.print();

    std::printf(
        "\nPerf-CI contract: the deterministic table must match "
        "bench/BENCH_PERF.json bit-for-bit and be identical in each\n"
        "of the %u repetitions (tools/perfgate.py hard-fails on drift "
        "— a perf change must not change simulated behaviour).\n"
        "Host rows are medians of the repetitions; perfgate fails a "
        "median wall time above 2x the blessed one.\n",
        kReps);
    return 0;
}
