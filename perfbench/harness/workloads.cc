#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <streambuf>
#include <string>

#include "fault/campaign.h"
#include "isa/assembler.h"
#include "isa/loader.h"
#include "isa/machine.h"
#include "noc/node_memory.h"
#include "noc/shard.h"
#include "oracle.h"
#include "os/kernel.h"
#include "sim/profile.h"
#include "sim/stats_registry.h"
#include "sim/trace.h"
#include "verify/verifier.h"

namespace perfbench {

using namespace gp;

void
SimCounts::add(const SimCounts &o)
{
    insts += o.insts;
    cycles += o.cycles;
    clusterCycles += o.clusterCycles;
    emptyClusterCycles += o.emptyClusterCycles;
    predecodeHits += o.predecodeHits;
    predecodeMisses += o.predecodeMisses;
    cacheHits += o.cacheHits;
    cacheMisses += o.cacheMisses;
    tlbHits += o.tlbHits;
    tlbMisses += o.tlbMisses;
    bankConflictStalls += o.bankConflictStalls;
    extPortStalls += o.extPortStalls;
    mappedPages += o.mappedPages;
    portCalls += o.portCalls;
    ptrOps += o.ptrOps;
    gateCrossings += o.gateCrossings;
    domainSwitches += o.domainSwitches;
    nocMessages += o.nocMessages;
    nocLinkStalls += o.nocLinkStalls;
    nocRemoteMisses += o.nocRemoteMisses;
    injections += o.injections;
    eccCorrected += o.eccCorrected;
    shardBusyMax += o.shardBusyMax;
    shardBusySum += o.shardBusySum;
    shards = std::max(shards, o.shards);
    signature = (signature ^ o.signature) * 1099511628211ull;
}

namespace {

/** FNV-1a step. */
uint64_t
mixHash(uint64_t h, uint64_t v)
{
    return (h ^ v) * 1099511628211ull;
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

/** The modelled MAP cache: 4 banks x 512 sets x 2 ways x 32 B. */
mem::CacheConfig
mapCache()
{
    mem::CacheConfig c;
    c.banks = 4;
    c.lineBytes = 32;
    c.setsPerBank = 512;
    c.ways = 2;
    return c;
}

/** The process-wide "gp" op counters: pointer ops + access checks. */
uint64_t
gpPointerOps()
{
    // The group is a function-local static of the gp layer: look its
    // counters up once, after its first use has created them. Counters
    // live in a std::map, so their addresses stay valid; reading them
    // costs nothing next to a sub-millisecond campaign job.
    static const std::vector<const sim::Counter *> counters = [] {
        (void)checkAccess(Word{}, Access::Load, 8);
        for (const sim::StatGroup *g :
             sim::StatRegistry::instance().groups()) {
            if (g->name() != "gp")
                continue;
            std::vector<const sim::Counter *> out;
            for (const char *c : {"op_lea", "op_leab", "op_restrict",
                                  "op_subseg", "op_setptr", "access_checks"}) {
                const auto it = g->counters().find(c);
                if (it == g->counters().end())
                    break;
                out.push_back(&it->second);
            }
            if (out.size() == 6)
                return out;
        }
        std::fprintf(stderr, "perfbench: no \"gp\" op counters\n");
        std::exit(2);
    }();
    uint64_t n = 0;
    for (const sim::Counter *c : counters)
        n += c->value();
    return n;
}

void
addMachineCounts(isa::Machine &m, SimCounts &s)
{
    sim::StatGroup &st = m.stats();
    s.insts += st.get("instructions");
    s.cycles += m.cycle();
    s.clusterCycles += uint64_t(m.config().clusters) * m.cycle();
    s.emptyClusterCycles += st.get("empty_cluster_cycles");
    s.predecodeHits += st.get("predecode_hits");
    s.predecodeMisses += st.get("predecode_misses");
    s.gateCrossings += st.get("gate_crossings");
    s.domainSwitches += st.get("domain_switches");
}

void
addMemCounts(mem::MemorySystem &ms, SimCounts &s)
{
    s.cacheHits += ms.stats().get("hits");
    s.cacheMisses += ms.stats().get("misses");
    s.tlbHits += ms.tlb().stats().get("hits");
    s.tlbMisses += ms.tlb().stats().get("misses");
    s.bankConflictStalls += ms.stats().get("bank_conflict_stalls");
    s.extPortStalls += ms.stats().get("ext_port_stalls");
    s.mappedPages += ms.pageTable().mappedPages();
}

/** @return "" when every thread halted cleanly, else why not. */
std::string
threadsHalted(const isa::Machine &m, size_t expected)
{
    size_t halted = 0;
    for (const isa::Thread &t : m.threads()) {
        if (t.state() == isa::ThreadState::Halted)
            ++halted;
        else if (t.state() == isa::ThreadState::Faulted)
            return std::string("thread faulted: ") +
                   std::string(faultName(t.faultRecord().fault));
    }
    if (m.watchdogTripped())
        return "watchdog tripped";
    if (halted != expected)
        return "not every thread halted";
    return "";
}

isa::Assembly
assembleOrDie(const std::string &src, const char *what)
{
    isa::Assembly a = isa::assemble(src);
    if (!a.ok) {
        std::fprintf(stderr, "perfbench: %s: %s\n", what, a.error.c_str());
        std::exit(2);
    }
    return a;
}

void
verifyOrDie(const isa::Assembly &a,
            const std::map<unsigned, verify::AbsVal> &regs, const char *what)
{
    verify::VerifyOptions opts;
    opts.entryRegs = regs;
    const verify::VerifyResult r = verify::verifyProgram(a, opts);
    if (!r.ok()) {
        std::fprintf(stderr, "perfbench: %s fails verification:\n%s", what,
                     r.report(what, &a).c_str());
        std::exit(2);
    }
}

// ------------------------------------------------------------------ memsweep

/**
 * The Fig. 5 sweep with a running checksum. A store pass first fills
 * the thread's 32 KiB segment with first + j * step (so the checksum
 * depends on every word), then r13 read passes fold four words per
 * iteration into r9. r1 = data segment, r2 = first, r3 = step.
 */
constexpr const char *kSweepSource = R"(
        movi r11, 32768
        movi r14, 0
fill:   leab r4, r1, r14
        st   r2, 0(r4)
        add  r2, r2, r3
        st   r2, 8(r4)
        add  r2, r2, r3
        st   r2, 16(r4)
        add  r2, r2, r3
        st   r2, 24(r4)
        add  r2, r2, r3
        addi r14, r14, 32
        bne  r14, r11, fill
        movi r9, 0
        movi r12, 0
sweep:  movi r14, 0
inner:  leab r4, r1, r14
        ld   r5, 0(r4)
        ld   r6, 8(r4)
        ld   r7, 16(r4)
        ld   r8, 24(r4)
        add  r9, r9, r5
        xor  r9, r9, r6
        add  r9, r9, r7
        xor  r9, r9, r8
        addi r14, r14, 32
        bne  r14, r11, inner
        addi r12, r12, 1
        bne  r12, r13, sweep
        halt
)";

constexpr unsigned kClusters = 4;
constexpr unsigned kSweepThreads = 16;
constexpr uint64_t kSweepSegLog2 = 15; // 32 KiB = kSweepWords words

class Memsweep : public Workload
{
  public:
    explicit Memsweep(uint64_t seed) : seed_(seed) {}

    const char *name() const override { return "memsweep"; }

    void
    setup(Tracer &tracer) override
    {
        {
            ScopedSpan s(tracer, "isa.assemble", kSetupJob);
            assembly_ = assembleOrDie(kSweepSource, "memsweep");
        }
        {
            ScopedSpan s(tracer, "verify.verify", kSetupJob);
            auto regs = verify::defaultEntryRegs(uint64_t(1) << kSweepSegLog2);
            regs[3] = verify::AbsVal::intUnknown();
            regs[13] = verify::AbsVal::intUnknown();
            verifyOrDie(assembly_, regs, "memsweep");
        }
        Job job(config(false));
        job.build(tracer, kSetupJob, false, 0);
        job.load(tracer, kSetupJob, inputs(0), assembly_);
    }

    JobResult
    runJob(uint64_t index, const JobOptions &opts, Tracer &tracer) override
    {
        JobResult r;
        const std::vector<SweepThread> in = inputs(index % kInputSets);
        Job job(config(opts.fast));
        {
            const double t0 = now();
            ScopedSpan root(tracer, "job", index);
            job.build(tracer, index, opts.traced, opts.delayNs);
            job.load(tracer, index, in, assembly_);
            if (opts.profiled) {
                sim::ProfileConfig pcfg;
                pcfg.pc = pcfg.domain = pcfg.interval = true;
                sim::Profiler::instance().arm(
                    job.cfg.clusters,
                    job.cfg.clusters * job.cfg.threadsPerCluster, pcfg);
            }
            const uint64_t ops0 = gpPointerOps();
            {
                ScopedSpan s(tracer, "isa.run", index);
                const double r0 = now();
                job.machine->run(200'000'000);
                r.runSeconds = now() - r0;
                if (job.shim)
                    s.portSeconds = job.shim->seconds();
            }
            r.sim.ptrOps = gpPointerOps() - ops0;
            if (opts.profiled)
                sim::Profiler::instance().disarm();
            {
                ScopedSpan s(tracer, "check", index);
                check(*job.machine, in, r);
                addMachineCounts(*job.machine, r.sim);
                if (!opts.fast)
                    addMemCounts(*job.memsys, r.sim);
            }
            r.jobSeconds = now() - t0;
        }
        // Replay probes: outside the job's time, while its memory
        // system still holds the job's translations.
        if (job.shim) {
            r.sim.portCalls = job.shim->calls();
            r.portSeconds = job.shim->seconds();
            r.translateNs =
                replayTranslateNs(*job.memsys, job.shim->recorded());
            r.checkNs = replayCheckNs(job.shim->recorded());
        }
        return r;
    }

  private:
    /** The machine of one job: bench-owned memory system, optional
     * timing shim in front of it, or the owning fast-mode machine. */
    struct Job
    {
        explicit Job(const isa::MachineConfig &c) : cfg(c) {}

        void
        build(Tracer &tracer, uint64_t job, bool traced, double delay_ns)
        {
            ScopedSpan s(tracer, "isa.build", job);
            if (cfg.fastMode) {
                machine = std::make_unique<isa::Machine>(cfg);
                return;
            }
            memsys = std::make_unique<mem::MemorySystem>(cfg.mem);
            mem::MemoryPort *port = memsys.get();
            if (traced) {
                shim = std::make_unique<TimingPort>(*memsys, delay_ns);
                port = shim.get();
            }
            machine = std::make_unique<isa::Machine>(cfg, *port);
        }

        void
        load(Tracer &tracer, uint64_t job,
             const std::vector<SweepThread> &in, const isa::Assembly &a)
        {
            ScopedSpan s(tracer, "isa.load", job);
            mem::MemoryPort &port =
                memsys ? static_cast<mem::MemoryPort &>(*memsys)
                       : machine->port();
            for (size_t i = 0; i < in.size(); ++i) {
                const SweepThread &t = in[i];
                const isa::LoadedProgram prog =
                    isa::loadProgram(port, t.codeBase, a.words);
                isa::Thread *th = machine->spawnOnCluster(
                    unsigned(i % kClusters), prog.execPtr);
                if (!th) {
                    std::fprintf(stderr, "perfbench: out of thread slots\n");
                    std::exit(2);
                }
                th->setReg(1, isa::dataSegment(t.dataBase, kSweepSegLog2));
                th->setReg(2, Word::fromInt(t.first));
                th->setReg(3, Word::fromInt(t.step));
                th->setReg(13, Word::fromInt(t.passes));
            }
        }

        isa::MachineConfig cfg;
        std::unique_ptr<mem::MemorySystem> memsys;
        std::unique_ptr<TimingPort> shim;
        std::unique_ptr<isa::Machine> machine;
    };

    static isa::MachineConfig
    config(bool fast)
    {
        isa::MachineConfig cfg;
        cfg.mem.cache = mapCache();
        cfg.fastMode = fast;
        return cfg;
    }

    /**
     * Placements, data patterns and pass counts of input set @p set.
     * The seed permutes roles within a fixed layout: on every cluster
     * (thread t runs on cluster t % 4) one thread of each (passes,
     * cache-index half) pair, with passes 1 or 2 and the data segment
     * in the lower or upper half of the cache's 64 KiB index range.
     * So sets differ in which thread does what and where, not in how
     * much work there is or how it contends. Data segments are 32 KiB
     * and aligned to their size.
     */
    std::vector<SweepThread>
    inputs(uint64_t set) const
    {
        SplitMix rng(inputSeed(seed_, set));
        const std::vector<uint64_t> halfSlot[2] = {permutation(rng, 8),
                                                   permutation(rng, 8)};
        std::vector<uint64_t> role[kClusters];
        for (auto &r : role)
            r = permutation(rng, kSweepThreads / kClusters);
        unsigned used[2] = {0, 0};
        std::vector<SweepThread> in(kSweepThreads);
        for (unsigned t = 0; t < kSweepThreads; ++t) {
            const uint64_t r = role[t % kClusters][t / kClusters];
            const uint64_t half = r / 2;
            SweepThread &s = in[t];
            // Code segments (256 B) stay at fixed slots: where code
            // sits decides how often the data streams evict it, and
            // that would make the amount of work depend on the seed.
            s.codeBase = ((uint64_t(t) + 1) << 20) + t * 256;
            s.dataBase = ((uint64_t(t) + 1) << 30) +
                         (2 * halfSlot[half][used[half]++] + half) *
                             (uint64_t(1) << kSweepSegLog2);
            s.first = rng.next();
            s.step = rng.next() | 1;
            s.passes = 1 + r % 2;
        }
        return in;
    }

    static void
    check(isa::Machine &m, const std::vector<SweepThread> &in, JobResult &r)
    {
        r.error = threadsHalted(m, in.size());
        uint64_t sig = kFnvBasis;
        // Thread ids follow spawn order, which is input order.
        for (const isa::Thread &t : m.threads()) {
            if (!r.error.empty())
                break;
            const uint64_t want = sweepChecksum(in[t.id()]);
            const uint64_t got = t.reg(9).bits();
            if (got != want) {
                char buf[128];
                std::snprintf(buf, sizeof buf,
                              "thread %u checksum %016llx, expected %016llx",
                              t.id(), (unsigned long long)got,
                              (unsigned long long)want);
                r.error = buf;
            }
            sig = mixHash(sig, got);
        }
        r.ok = r.error.empty();
        r.sim.signature = mixHash(sig, m.cycle());
    }

    uint64_t seed_;
    isa::Assembly assembly_;
};

// ------------------------------------------------------------------ gatecall

/** The F7 front subsystem: forwards each request through the server's
 * enter pointer (capability table: [0] its table, [1] server gate). */
constexpr const char *kFrontSource = R"(
        getip r2
        leabi r2, r2, 0
        ld r3, 0(r2)
        ld r4, 8(r2)
        ld r5, 0(r3)
        getip r12
        leai r12, r12, 24
        jmp r4
        jmp r14
)";

/** Server: bump the counter and fold it into the hash, both held in
 * one state line (capability table: [0] the state segment). */
std::string
serverSource(uint64_t alu_steps)
{
    std::string s = R"(
        getip r2
        leabi r2, r2, 0
        ld   r3, 0(r2)
        ld   r4, 0(r3)
        ld   r5, 8(r3)
        addi r4, r4, 1
)";
    for (uint64_t k = 0; k < alu_steps; ++k)
        s += "        xor  r5, r5, r4\n"
             "        shli r6, r5, 7\n"
             "        add  r5, r5, r6\n";
    s += R"(
        st   r4, 0(r3)
        st   r5, 8(r3)
        jmp  r12
)";
    return s;
}

/** Caller: r1 = front enter pointer, r11 = request count. */
constexpr const char *kCallerSource = R"(
        movi r10, 0
loop:
        getip r14
        leai r14, r14, 24
        jmp r1
        addi r10, r10, 1
        bne r10, r11, loop
        halt
)";

class Gatecall : public Workload
{
  public:
    explicit Gatecall(uint64_t seed) : seed_(seed) {}

    const char *name() const override { return "gatecall"; }

    void
    setup(Tracer &tracer) override
    {
        const GateInputs in = inputs(0);
        isa::Assembly caller, front, server;
        {
            ScopedSpan s(tracer, "isa.assemble", kSetupJob);
            caller = assembleOrDie(kCallerSource, "gatecall caller");
            front = assembleOrDie(kFrontSource, "gatecall front");
            server = assembleOrDie(serverSource(in.aluSteps),
                                   "gatecall server");
        }
        {
            ScopedSpan s(tracer, "verify.verify", kSetupJob);
            const auto anyPtr = verify::AbsVal::pointerAnyGeom(0xff);
            std::map<unsigned, verify::AbsVal> callerRegs;
            callerRegs[1] = verify::AbsVal::pointerAnyGeom(
                uint16_t(1u << unsigned(Perm::EnterUser)));
            callerRegs[11] = verify::AbsVal::intUnknown();
            verifyOrDie(caller, callerRegs, "gatecall caller");
            std::map<unsigned, verify::AbsVal> subRegs;
            subRegs[12] = anyPtr;
            subRegs[14] = anyPtr;
            verifyOrDie(front, subRegs, "gatecall front");
            verifyOrDie(server, subRegs, "gatecall server");
        }
        Job job;
        job.build(tracer, kSetupJob, in);
    }

    JobResult
    runJob(uint64_t index, const JobOptions &, Tracer &tracer) override
    {
        return runInputs(index, inputs(index % kInputSets), tracer);
    }

    /** Build, run and check one job on inputs @p in. */
    JobResult
    runInputs(uint64_t index, const GateInputs &in, Tracer &tracer)
    {
        JobResult r;
        Job job;
        const double t0 = now();
        ScopedSpan root(tracer, "job", index);
        job.build(tracer, index, in);
        isa::Machine &m = job.kernel->machine();
        const uint64_t ops0 = gpPointerOps();
        {
            ScopedSpan s(tracer, "isa.run", index);
            const double r0 = now();
            m.run(200'000'000);
            r.runSeconds = now() - r0;
        }
        r.sim.ptrOps = gpPointerOps() - ops0;
        {
            ScopedSpan s(tracer, "check", index);
            r.error = threadsHalted(m, 1);
            const GateState want = gateFinalState(in);
            mem::MemorySystem &ms = job.kernel->mem();
            const uint64_t counter = ms.peekWord(job.state).bits();
            const uint64_t hash = ms.peekWord(job.state + 8).bits();
            if (r.error.empty() &&
                (counter != want.counter || hash != want.hash)) {
                char buf[160];
                std::snprintf(buf, sizeof buf,
                              "state (%llu, %016llx), expected (%llu, %016llx)",
                              (unsigned long long)counter,
                              (unsigned long long)hash,
                              (unsigned long long)want.counter,
                              (unsigned long long)want.hash);
                r.error = buf;
            }
            r.ok = r.error.empty();
            addMachineCounts(m, r.sim);
            addMemCounts(ms, r.sim);
            r.sim.signature = mixHash(
                mixHash(mixHash(kFnvBasis, counter), hash), m.cycle());
        }
        r.jobSeconds = now() - t0;
        return r;
    }

  private:
    /** One kernel with the caller -> front -> server chain loaded. */
    struct Job
    {
        void
        build(Tracer &tracer, uint64_t job, const GateInputs &in)
        {
            {
                ScopedSpan s(tracer, "isa.build", job);
                kernel = std::make_unique<os::Kernel>(config());
            }
            ScopedSpan s(tracer, "os.build", job);
            auto stateSeg = kernel->segments().allocate(4096, Perm::ReadWrite);
            auto frontTable =
                kernel->segments().allocate(4096, Perm::ReadWrite);
            if (!stateSeg || !frontTable)
                die("segment allocation failed");
            state = stateSeg.value.addr();
            kernel->mem().pokeWord(state, Word::fromInt(0));
            kernel->mem().pokeWord(state + 8, Word::fromInt(in.hash0));
            auto server = kernel->buildSubsystem(serverSource(in.aluSteps),
                                                 {stateSeg.value});
            if (!server)
                die("server build failed");
            auto front = kernel->buildSubsystem(
                kFrontSource, {frontTable.value, server.value.enterPtr});
            if (!front)
                die("front build failed");
            auto caller = kernel->loadAssembly(kCallerSource);
            if (!caller)
                die("caller load failed");
            isa::Thread *t = kernel->spawn(
                caller.value.execPtr,
                {{1, front.value.enterPtr},
                 {11, Word::fromInt(in.requests)}});
            if (!t)
                die("no thread slot");
        }

        static os::KernelConfig
        config()
        {
            os::KernelConfig kc;
            kc.machine.mem.cache = mapCache();
            return kc;
        }

        [[noreturn]] static void
        die(const char *why)
        {
            std::fprintf(stderr, "perfbench: gatecall: %s\n", why);
            std::exit(2);
        }

        std::unique_ptr<os::Kernel> kernel;
        uint64_t state = 0;
    };

    /**
     * Request count, server work and initial hash of set @p set. The
     * seed permutes a fixed ladder of job sizes over the sets, so every
     * seed runs the same mix of sizes.
     */
    GateInputs
    inputs(uint64_t set) const
    {
        SplitMix order(seed_);
        const uint64_t rank = permutation(order, kInputSets)[set];
        SplitMix rng(inputSeed(seed_, set));
        GateInputs in;
        in.requests = 7600 + 50 * rank;
        in.aluSteps = 4 + rank % 4;
        in.hash0 = rng.next();
        return in;
    }

    uint64_t seed_;
};

// -------------------------------------------------------------------- mesh64

/**
 * The F6d all-to-all loop. Iteration i of the node with logical id
 * r2 adds r6 (= id + 1) to word i of home node (i + id) mod 64, so
 * every word is written by exactly one node. r1 = full-space RW
 * pointer, r4 = iteration count (at most kMeshWindowWords).
 */
constexpr const char *kMeshSource = R"(
        movi r3, 0
loop:
        add r7, r3, r2
        andi r7, r7, 63
        shli r7, r7, 48
        shli r8, r3, 3
        andi r8, r8, 2040
        addi r8, r8, 4096
        add r7, r7, r8
        leab r9, r1, r7
        ld r10, 0(r9)
        add r10, r10, r6
        st r10, 0(r9)
        addi r3, r3, 1
        bne r3, r4, loop
        halt
)";

constexpr unsigned kMeshNodes = 64;
constexpr uint64_t kMeshWindowOffset = 4096;

/// Host threads mesh64 simulates with (at most nproc). Four spinning
/// shard threads would occupy every CPU of a 4-CPU host, so any
/// preemption of one stalls the barrier for all; two leave the host
/// room and let the benchmark keep them on its two quietest CPUs.
constexpr unsigned kMeshHostThreads = 2;

class Mesh64 : public Workload
{
  public:
    Mesh64(uint64_t seed, unsigned nproc)
        : seed_(seed),
          threads_(std::max(1u, std::min(kMeshHostThreads, nproc)))
    {
    }

    const char *name() const override { return "mesh64"; }
    unsigned hostThreads() const override { return threads_; }

    void
    setup(Tracer &tracer) override
    {
        {
            ScopedSpan s(tracer, "isa.assemble", kSetupJob);
            assembly_ = assembleOrDie(kMeshSource, "mesh64");
        }
        auto mesh = build(tracer, kSetupJob, threads_);
        load(tracer, kSetupJob, *mesh, inputs(0));
    }

    JobResult
    runJob(uint64_t index, const JobOptions &opts, Tracer &tracer) override
    {
        JobResult r;
        const MeshInputs in = inputs(index % kInputSets);
        std::unique_ptr<noc::ShardedMesh> mesh;
        const double t0 = now();
        ScopedSpan root(tracer, "job", index);
        mesh = build(tracer, index, opts.threads ? opts.threads : threads_);
        load(tracer, index, *mesh, in);
        const uint64_t ops0 = gpPointerOps();
        {
            ScopedSpan s(tracer, "noc.run", index);
            const double r0 = now();
            mesh->run(20'000'000);
            r.runSeconds = now() - r0;
        }
        r.sim.ptrOps = gpPointerOps() - ops0;
        {
            ScopedSpan s(tracer, "check", index);
            check(*mesh, in, r);
        }
        r.jobSeconds = now() - t0;
        return r;
    }

  private:
    std::unique_ptr<noc::ShardedMesh>
    build(Tracer &tracer, uint64_t job, unsigned threads)
    {
        ScopedSpan s(tracer, "noc.build", job);
        noc::ShardConfig cfg;
        cfg.mesh.dimX = 4;
        cfg.mesh.dimY = 4;
        cfg.mesh.dimZ = 4;
        cfg.node.cache = mapCache();
        cfg.machine.clusters = 1;
        cfg.hostThreads = threads;
        return std::make_unique<noc::ShardedMesh>(cfg);
    }

    void
    load(Tracer &tracer, uint64_t job, noc::ShardedMesh &mesh,
         const MeshInputs &in)
    {
        ScopedSpan s(tracer, "isa.load", job);
        const Word full = makePointer(Perm::ReadWrite, 54, 0).value;
        for (unsigned n = 0; n < mesh.nodeCount(); ++n) {
            const isa::LoadedProgram prog = isa::loadProgram(
                mesh.node(n), noc::nodeBase(n) + 0x20000, assembly_.words);
            isa::Thread *t = mesh.machine(n).spawn(prog.execPtr);
            t->setReg(1, full);
            t->setReg(2, Word::fromInt(in.ids[n]));
            t->setReg(4, Word::fromInt(in.iters[n]));
            t->setReg(6, Word::fromInt(in.ids[n] + 1));
        }
    }

    /** Seeded node permutation and per-node loop counts; the counts
     * are a seeded permutation of one fixed ladder, 160..223 iterations
     * (at most kMeshWindowWords). */
    MeshInputs
    inputs(uint64_t set) const
    {
        SplitMix rng(inputSeed(seed_, set));
        MeshInputs in;
        in.ids = permutation(rng, kMeshNodes);
        in.iters = permutation(rng, kMeshNodes);
        for (uint64_t &n : in.iters)
            n += 160;
        return in;
    }

    void
    check(noc::ShardedMesh &mesh, const MeshInputs &in, JobResult &r)
    {
        for (unsigned n = 0; n < mesh.nodeCount() && r.error.empty(); ++n)
            r.error = threadsHalted(mesh.machine(n), 1);
        for (unsigned home = 0; home < kMeshNodes && r.error.empty();
             ++home) {
            const std::vector<uint64_t> want = meshWindow(in, home);
            for (uint64_t i = 0; i < kMeshWindowWords; ++i) {
                const uint64_t addr =
                    noc::nodeBase(home) + kMeshWindowOffset + 8 * i;
                const uint64_t got = mesh.node(home).peekWord(addr).bits();
                if (got != want[i]) {
                    char buf[128];
                    std::snprintf(buf, sizeof buf,
                                  "node %u word %llu = %llu, expected %llu",
                                  home, (unsigned long long)i,
                                  (unsigned long long)got,
                                  (unsigned long long)want[i]);
                    r.error = buf;
                    break;
                }
            }
        }
        r.ok = r.error.empty();

        SimCounts &s = r.sim;
        for (unsigned n = 0; n < mesh.nodeCount(); ++n) {
            addMachineCounts(mesh.machine(n), s);
            sim::StatGroup &ns = mesh.node(n).stats();
            s.cacheHits += ns.get("hits");
            s.cacheMisses += ns.get("local_misses") + ns.get("remote_misses");
            s.nocRemoteMisses += ns.get("remote_misses");
        }
        s.nocMessages = mesh.mesh().stats().get("messages");
        s.nocLinkStalls = mesh.mesh().stats().get("link_stall_cycles");
        for (const sim::StatGroup *g :
             sim::StatRegistry::instance().groups()) {
            if (g->name().rfind("shard", 0) != 0)
                continue;
            const uint64_t busy = g->get("busy_cycles");
            s.shardBusyMax = std::max(s.shardBusyMax, busy);
            s.shardBusySum += busy;
            ++s.shards;
        }
        s.signature = mesh.signature();
    }

    uint64_t seed_;
    unsigned threads_;
    isa::Assembly assembly_;
};

// ------------------------------------------------------------------ campaign

/** Counts the lines an exec trace writes: one per instruction. */
class LineCounter : public std::streambuf
{
  public:
    uint64_t lines = 0;

  protected:
    int_type
    overflow(int_type c) override
    {
        if (c == '\n')
            ++lines;
        return c;
    }
};

class Campaign : public Workload
{
  public:
    explicit Campaign(uint64_t seed)
        : seed_(seed), goldenInsts_(countGoldenInstructions())
    {
    }

    const char *name() const override { return "campaign"; }

    void
    setup(Tracer &tracer) override
    {
        {
            ScopedSpan s(tracer, "fault.build", kSetupJob);
            runner_ = std::make_unique<fault::CampaignRunner>(config());
        }
        ScopedSpan s(tracer, "fault.golden", kSetupJob);
        runner_->goldenSignature();
    }

    JobResult
    runJob(uint64_t index, const JobOptions &, Tracer &tracer) override
    {
        JobResult r;
        const double t0 = now();
        ScopedSpan root(tracer, "job", index);
        const uint64_t ops0 = gpPointerOps();
        fault::RunResult run;
        {
            ScopedSpan s(tracer, "fault.run_one", index);
            const double r0 = now();
            run = runner_->runOne(unsigned(index % kInputSets));
            r.runSeconds = now() - r0;
        }
        r.sim.ptrOps = gpPointerOps() - ops0;
        {
            ScopedSpan s(tracer, "check", index);
            if (run.outcome == fault::Outcome::Sdc ||
                run.outcome == fault::Outcome::CrashHang)
                r.error = std::string("run ") + std::to_string(index) +
                          ": " + std::string(fault::outcomeName(run.outcome));
            r.ok = r.error.empty();
            // A run's instructions are not exposed by the runner; every
            // run executes the golden run's path unless it faults, so
            // the golden count stands in for it.
            r.sim.insts = goldenInsts_;
            r.sim.cycles = run.cycles;
            r.sim.clusterCycles = run.cycles;
            r.sim.injections = run.injections;
            r.sim.eccCorrected = run.eccCorrected;
            r.sim.signature =
                mixHash(mixHash(mixHash(kFnvBasis, run.signature),
                                uint64_t(run.outcome)),
                        run.cycles);
        }
        r.jobSeconds = now() - t0;
        return r;
    }

  private:
    /** CI's zero-SDC campaign: SECDED with data- and tag-bit flips. */
    fault::CampaignConfig
    config() const
    {
        fault::CampaignConfig cfg;
        cfg.seed = seed_;
        cfg.runs = unsigned(kInputSets);
        cfg.ecc = mem::EccMode::Secded;
        cfg.faults.rate[unsigned(sim::FaultSite::MemDataBit)] = 3e-4;
        cfg.faults.rate[unsigned(sim::FaultSite::MemTagBit)] = 1e-4;
        return cfg;
    }

    /** Instructions of the fault-free run, counted from its exec
     * trace on a separate runner (outside any timed region). */
    uint64_t
    countGoldenInstructions() const
    {
        LineCounter counter;
        std::ostream os(&counter);
        auto &tm = sim::TraceManager::instance();
        tm.setTextSink(&os, uint32_t(sim::TraceCat::Exec));
        fault::CampaignRunner calibration(config());
        calibration.goldenSignature();
        tm.setTextSink(nullptr);
        return counter.lines;
    }

    uint64_t seed_;
    uint64_t goldenInsts_;
    std::unique_ptr<fault::CampaignRunner> runner_;
};

} // namespace

double
hostProbeSeconds()
{
    // A short gatecall job: the interpreter's fetch, decode and gate
    // path, which slows with its CPU like every workload does.
    static Gatecall probe(0);
    Tracer off(false);
    const JobResult r =
        probe.runInputs(kSetupJob, GateInputs{600, 4, 0x9e3779b97f4a7c15},
                        off);
    if (!r.ok) {
        std::fprintf(stderr, "perfbench: probe job failed: %s\n",
                     r.error.c_str());
        std::exit(2);
    }
    return r.jobSeconds;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, unsigned nproc)
{
    if (name == "memsweep")
        return std::make_unique<Memsweep>(seed);
    if (name == "gatecall")
        return std::make_unique<Gatecall>(seed);
    if (name == "mesh64")
        return std::make_unique<Mesh64>(seed, nproc);
    if (name == "campaign")
        return std::make_unique<Campaign>(seed);
    return nullptr;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"memsweep", "gatecall",
                                                   "mesh64", "campaign"};
    return names;
}

} // namespace perfbench
