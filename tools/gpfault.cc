/**
 * @file
 * gpfault — deterministic fault-injection campaign driver.
 *
 * Runs one campaign (src/fault/engine.h) and prints its five-way
 * outcome table. The default workload is one machine under stored-bit
 * and TLB faults, classified {masked, corrected, detected-fault,
 * silent-data-corruption, crash-hang}. --mesh X,Y,Z runs the
 * multi-node workload instead: fail-stop node deaths and persistent
 * link failures over the sharded mesh engine, classified {masked,
 * degraded-but-correct, detected-fault, silent-data-corruption,
 * hang}; its report ends with a campaign signature, and everything
 * after the first line is bit-identical for every --threads value.
 * Either campaign is a pure function of the flags (see usage()): same
 * flags, same report, bit for bit.
 *
 * The --expect-* flags turn the driver into a CI tripwire: the
 * headline result of the paper's tag-bit design is that a flipped
 * tag *faults* instead of forging a capability, so
 *   gpfault --rate mem-tag-bit=2e-4 --expect-detected
 * must find detections, and with SECDED armed
 *   gpfault --ecc=secded --rate mem-data-bit=2e-4 --expect-zero-sdc
 * must classify zero runs as silent data corruption.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "fault/campaign.h"
#include "fault/mesh_campaign.h"
#include "mem/ecc.h"
#include "sim/faultinject.h"
#include "sim/log.h"
#include "sim/stats_registry.h"

using namespace gp;

namespace {

struct Options
{
    bool mesh = false; //!< --mesh X,Y,Z given: run the mesh campaign
    fault::CampaignConfig campaign;
    fault::MeshCampaignConfig meshCampaign;
    std::string statsJson;
    bool verbose = false;
    bool expectZeroSdc = false;
    bool expectDetected = false;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --runs N           injected runs (default 100; mesh 25)\n"
        "  --seed N           master seed (default 1)\n"
        "  --iterations N     workload loop iterations (default 150;\n"
        "                     mesh 48)\n"
        "  --ecc=MODE         off | parity | secded (default off)\n"
        "  --walk-retries N   transient page-walk retries (default 0)\n"
        "  --rate SITE=R      per-opportunity fault rate at SITE\n"
        "                     (repeatable; see --list-sites)\n"
        "  --burst-max-bits N max bits per cache-line burst (default 4)\n"
        "  --watchdog-cycles N  per-run hang budget (default 300000)\n"
        "  --stats-json=FILE  export the campaign stat group as JSON\n"
        "  --elide-checks     arm verifier-driven check elision; the\n"
        "                     outcome table must match the elide-off\n"
        "                     campaign bit for bit (injected runs\n"
        "                     auto-disable elision)\n"
        "  --verbose          one line per run\n"
        "  --list-sites       print the fault-site names and exit\n"
        "  --expect-zero-sdc  exit 1 if any run is classified SDC\n"
        "  --expect-detected  exit 1 if no run is detected-fault\n"
        "mesh campaign (multi-node fail-stop resilience):\n"
        "  --mesh X,Y,Z       run the mesh campaign on an XxYxZ mesh\n"
        "                     (sites: node-fail-stop, link-down, plus\n"
        "                     the noc-* transients)\n"
        "  --threads N        host threads per run (default 1); the\n"
        "                     printed campaign signature is identical\n"
        "                     for every value\n"
        "  --max-cycles N     per-run cycle budget (default 400000)\n"
        "  --mesh-watchdog N  mesh quiescence window (default 20000)\n"
        "  --no-retrans       disable the end-to-end retry protocol\n",
        argv0);
}

void
listSites()
{
    for (unsigned i = 0; i < sim::kFaultSiteCount; ++i) {
        std::printf("%s\n",
                    std::string(sim::faultSiteName(
                                    static_cast<sim::FaultSite>(i)))
                        .c_str());
    }
}

bool
parseRate(const std::string &spec, sim::FaultConfig &fc)
{
    const size_t eq = spec.find('=');
    if (eq == std::string::npos)
        return false;
    const std::string name = spec.substr(0, eq);
    const sim::FaultSite site = sim::faultSiteFromName(name);
    if (site == sim::FaultSite::Count) {
        std::fprintf(stderr, "gpfault: unknown fault site '%s' "
                             "(try --list-sites)\n",
                     name.c_str());
        return false;
    }
    fc.rate[static_cast<unsigned>(site)] =
        std::stod(spec.substr(eq + 1));
    return true;
}

bool
parseArgs(int argc, char **argv, Options &opts, bool &exitEarly)
{
    exitEarly = false;
    // --mesh picks the workload, and with it the config that the
    // shared flags (--runs, --seed, --iterations, --rate, ...) fill.
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        opts.mesh |= arg == "--mesh" || arg.rfind("--mesh=", 0) == 0;
    }
    fault::CampaignPlan &plan =
        opts.mesh ? static_cast<fault::CampaignPlan &>(opts.meshCampaign)
                  : opts.campaign;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        auto valueOf = [&](const char *name,
                           std::string &out) -> bool {
            const std::string prefix = std::string(name) + "=";
            if (arg.rfind(prefix, 0) == 0) {
                out = arg.substr(prefix.size());
                return true;
            }
            if (arg == name) {
                const char *v = next();
                if (v)
                    out = v;
                return !out.empty();
            }
            return false;
        };
        std::string value;
        if (arg == "--list-sites") {
            listSites();
            exitEarly = true;
            return true;
        }
        if (arg == "--verbose") {
            opts.verbose = true;
            continue;
        }
        if (arg == "--expect-zero-sdc") {
            opts.expectZeroSdc = true;
            continue;
        }
        if (arg == "--expect-detected") {
            opts.expectDetected = true;
            continue;
        }
        if (arg == "--elide-checks" ||
            arg == "--elide-checks=verified") {
            opts.campaign.elideChecks = true;
            continue;
        }
        if (valueOf("--runs", value)) {
            plan.runs = unsigned(std::stoul(value));
            continue;
        }
        if (valueOf("--seed", value)) {
            plan.seed = std::stoull(value);
            continue;
        }
        if (valueOf("--iterations", value)) {
            plan.iterations = std::stoull(value);
            continue;
        }
        if (valueOf("--walk-retries", value)) {
            opts.campaign.walkRetries = unsigned(std::stoul(value));
            continue;
        }
        if (valueOf("--burst-max-bits", value)) {
            plan.faults.burstMaxBits = std::stoull(value);
            continue;
        }
        if (valueOf("--watchdog-cycles", value)) {
            opts.campaign.watchdogCycles = std::stoull(value);
            continue;
        }
        if (valueOf("--stats-json", value)) {
            opts.statsJson = value;
            continue;
        }
        if (valueOf("--rate", value)) {
            if (!parseRate(value, plan.faults))
                return false;
            continue;
        }
        if (valueOf("--mesh", value)) {
            auto &mc = opts.meshCampaign;
            if (std::sscanf(value.c_str(), "%u,%u,%u", &mc.dimX,
                            &mc.dimY, &mc.dimZ) != 3 ||
                mc.dimX == 0 || mc.dimY == 0 || mc.dimZ == 0) {
                std::fprintf(stderr,
                             "gpfault: bad --mesh geometry: %s\n",
                             value.c_str());
                return false;
            }
            continue;
        }
        if (valueOf("--threads", value)) {
            opts.meshCampaign.hostThreads =
                unsigned(std::stoul(value));
            continue;
        }
        if (valueOf("--max-cycles", value)) {
            opts.meshCampaign.maxCycles = std::stoull(value);
            continue;
        }
        if (valueOf("--mesh-watchdog", value)) {
            opts.meshCampaign.meshWatchdogCycles =
                std::stoull(value);
            continue;
        }
        if (arg == "--no-retrans") {
            opts.meshCampaign.retrans.enabled = false;
            continue;
        }
        if (valueOf("--ecc", value)) {
            if (value == "off" || value == "none") {
                opts.campaign.ecc = mem::EccMode::None;
            } else if (value == "parity") {
                opts.campaign.ecc = mem::EccMode::Parity;
            } else if (value == "secded") {
                opts.campaign.ecc = mem::EccMode::Secded;
            } else {
                std::fprintf(stderr, "gpfault: bad --ecc mode: %s\n",
                             value.c_str());
                return false;
            }
            continue;
        }
        std::fprintf(stderr, "gpfault: unknown option: %s\n",
                     arg.c_str());
        return false;
    }
    return true;
}

/** The workload's own columns of a --verbose row. */
void
printCounters(const fault::RunResult &r)
{
    std::printf("eccC=%llu eccD=%llu walkT=%llu ",
                (unsigned long long)r.eccCorrected,
                (unsigned long long)r.eccDetected,
                (unsigned long long)r.walkTransients);
}

void
printCounters(const fault::MeshRunResult &r)
{
    std::printf("dead=%llu links=%llu detours=%llu unreach=%llu ",
                (unsigned long long)r.deadNodes,
                (unsigned long long)r.downLinks,
                (unsigned long long)r.detours,
                (unsigned long long)r.unreachableFaults);
}

void
printHeader(const fault::CampaignConfig &cc,
            const fault::CampaignRunner::Totals &totals)
{
    std::printf("gpfault: %llu runs, %llu injections, ecc=%s, "
                "walk-retries=%u%s, golden=%llu cycles\n",
                (unsigned long long)totals.runs,
                (unsigned long long)totals.sum.injections,
                std::string(mem::eccModeName(cc.ecc)).c_str(),
                cc.walkRetries, cc.elideChecks ? ", elide-checks" : "",
                (unsigned long long)totals.goldenCycles);
}

void
printHeader(const fault::MeshCampaignConfig &mc,
            const fault::MeshCampaignRunner::Totals &totals)
{
    std::printf("gpfault: mesh %ux%ux%u campaign, %llu runs, "
                "%llu injections, %u host thread(s), retrans=%s, "
                "golden=%llu cycles\n",
                mc.dimX, mc.dimY, mc.dimZ,
                (unsigned long long)totals.runs,
                (unsigned long long)totals.sum.injections,
                mc.hostThreads, mc.retrans.enabled ? "on" : "off",
                (unsigned long long)totals.goldenCycles);
    std::printf("  dead-nodes=%llu down-links=%llu detours=%llu "
                "unreachable-faults=%llu\n",
                (unsigned long long)totals.sum.deadNodes,
                (unsigned long long)totals.sum.downLinks,
                (unsigned long long)totals.sum.detours,
                (unsigned long long)totals.sum.unreachableFaults);
}

/** Run one campaign and report it: the whole driver after parsing. */
template <class W>
int
runCampaign(const typename W::Config &config, const Options &opts)
{
    fault::Campaign<W> runner(config);
    const auto totals = runner.runAll();

    for (size_t i = 0; opts.verbose && i < runner.results().size(); ++i) {
        const auto &r = runner.results()[i];
        std::printf("run %4zu: %-23s cycles=%-7llu inj=%-3llu ", i,
                    std::string(W::kLabels[unsigned(r.outcome)]).c_str(),
                    (unsigned long long)r.cycles,
                    (unsigned long long)r.injections);
        printCounters(r);
        std::printf("fault=%s\n",
                    std::string(faultName(r.firstFault)).c_str());
    }
    printHeader(config, totals);
    for (unsigned o = 0; o < fault::kOutcomeCount; ++o) {
        const uint64_t n = totals.perOutcome[o];
        std::printf("  %-23s %6llu  (%5.1f%%)\n",
                    std::string(W::kLabels[o]).c_str(),
                    (unsigned long long)n,
                    totals.runs ? 100.0 * double(n) /
                                      double(totals.runs)
                                : 0.0);
    }
    // Only the mesh prints its signature: CI compares it across
    // --threads values.
    if constexpr (std::is_same_v<W, fault::MeshWorkload>)
        std::printf("gpfault: mesh campaign signature %016llx\n",
                    (unsigned long long)runner.campaignSignature());

    if (!opts.statsJson.empty()) {
        std::ofstream out(opts.statsJson, std::ios::trunc);
        if (!out)
            sim::fatal("cannot open stats file %s",
                       opts.statsJson.c_str());
        sim::StatRegistry::instance().exportJson(out);
    }

    const uint64_t sdc = totals.outcome(fault::Outcome::Sdc);
    const uint64_t detected =
        totals.outcome(fault::Outcome::DetectedFault);
    if (opts.expectZeroSdc && sdc != 0) {
        std::fprintf(stderr,
                     "gpfault: FAIL: expected zero silent data "
                     "corruption, saw %llu run(s)\n",
                     (unsigned long long)sdc);
        return 1;
    }
    if (opts.expectDetected && detected == 0) {
        std::fprintf(stderr,
                     "gpfault: FAIL: expected detected-fault runs, "
                     "saw none\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool exitEarly = false;
    if (!parseArgs(argc, argv, opts, exitEarly)) {
        usage(argv[0]);
        return 2;
    }
    if (exitEarly)
        return 0;
    return opts.mesh
               ? runCampaign<fault::MeshWorkload>(opts.meshCampaign, opts)
               : runCampaign<fault::MachineWorkload>(opts.campaign, opts);
}
