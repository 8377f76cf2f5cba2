/**
 * @file
 * The multi-node fault campaign over the sharded mesh engine
 * (engine.h runs it).
 *
 * Where the single-machine campaign (campaign.h) strikes stored
 * bits and TLB entries, this campaign strikes the *fabric*: fail-stop
 * node deaths and persistent link failures, armed once per epoch at
 * the barrier so the failure schedule is a pure function of
 * (configuration, seed) — never of the host-thread count. Each run is
 * classified into the shared five-way Outcome taxonomy under mesh
 * labels:
 *
 *  - **masked**: no mesh fault fired this run; every node's result is
 *    bit-identical to the failure-free golden run;
 *  - **degraded-but-correct** (Outcome::Corrected): the fabric lost
 *    nodes or links, yet every *surviving* node's architectural
 *    result is bit-identical to its failure-free golden result —
 *    route-around, end-to-end retries, and dead-op dropping absorbed
 *    the damage;
 *  - **detected-fault**: at least one survivor terminated with an
 *    architectural fault (typically NodeUnreachable: its remote home
 *    died and the bounded retry budget exhausted). Detection is the
 *    fail-stop win — a dead home surfaces as a typed error, never as
 *    a parked-forever thread;
 *  - **silent-data-corruption**: a survivor completed "successfully"
 *    but its result image differs from golden. The tripwire class:
 *    the campaign exists to prove this count stays zero;
 *  - **hang** (Outcome::CrashHang): the run never completed — the
 *    distributed mesh watchdog (or the per-run cycle budget) had to
 *    end it.
 *
 * The workload makes per-node results *timing-independent*: each node
 * accumulates over constants the harness pre-poked into its ring
 * neighbor's partition (remote traffic that exercises routing and the
 * retry protocol) and writes a result vector into its own partition
 * (a pure function of node ids alone). Survivor results can therefore
 * be compared word-for-word against the failure-free golden run even
 * when every message detoured.
 */

#ifndef GP_FAULT_MESH_CAMPAIGN_H
#define GP_FAULT_MESH_CAMPAIGN_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "fault/engine.h"
#include "gp/fault.h"
#include "noc/retransmit.h"

namespace gp::fault {

/** Full configuration of one mesh campaign. */
struct MeshCampaignConfig : CampaignPlan
{
    MeshCampaignConfig()
    {
        runs = 25;
        iterations = 48;
    }

    /** Mesh geometry. */
    unsigned dimX = 2, dimY = 2, dimZ = 2;
    /** Host threads per simulated run (identical outcomes for any
     * value — the CI cross-check asserts exactly that). */
    unsigned hostThreads = 1;
    /** Per-run simulated-cycle budget. */
    uint64_t maxCycles = 400000;
    /** Distributed mesh watchdog window (cycles of zero mesh-wide
     * progress before the run is declared hung). */
    uint64_t meshWatchdogCycles = 20000;
    /** End-to-end retry protocol on the NoC links. On by default:
     * bounded timeout/backoff/retry is the mechanism under test
     * (aggregate init — the remaining fields keep their own
     * defaults). */
    noc::RetransConfig retrans{/*enabled=*/true};
};

/** Everything observed about one mesh run. */
struct MeshRunResult
{
    Outcome outcome = Outcome::Masked;
    uint64_t cycles = 0;        //!< simulated cycles executed
    uint64_t injections = 0;    //!< injector firings (all sites)
    uint64_t deadNodes = 0;     //!< fail-stopped nodes at run end
    uint64_t downLinks = 0;     //!< down links at run end
    uint64_t detours = 0;       //!< messages routed around failures
    uint64_t unreachableFaults = 0; //!< typed NodeUnreachable faults
    /** Survivors that completed CLEANLY yet differ from golden —
     * the silent-data-corruption tally (faulted survivors' truncated
     * results are detected failures, not corruption). */
    uint64_t survivorsWrong = 0;
    Fault firstFault = Fault::None; //!< first fault any survivor took
    bool meshWatchdog = false;      //!< distributed watchdog tripped
};

/** The ring-traffic workload, as Campaign<> requires it. Fault
 * rates: NodeFailStop / LinkDown are per-epoch opportunities; NoC
 * transient sites may be armed too. */
struct MeshWorkload
{
    using Config = MeshCampaignConfig;
    using Result = MeshRunResult;

    static constexpr const char *kStatGroup = "mesh_campaign";
    static constexpr std::string_view kLabels[kOutcomeCount] = {
        "masked", "degraded-but-correct", "detected-fault",
        "silent-data-corruption", "hang"};
    static constexpr SummedCounter<MeshRunResult> kSummed[] = {
        {"injections", &MeshRunResult::injections},
        {"dead_nodes", &MeshRunResult::deadNodes},
        {"down_links", &MeshRunResult::downLinks},
        {"detours", &MeshRunResult::detours},
        {"unreachable_faults", &MeshRunResult::unreachableFaults},
    };

    /** Appends one result signature per node (a placeholder for a
     * dead one) to @p sigs. */
    static MeshRunResult run(const MeshCampaignConfig &config,
                             const sim::FaultConfig *faults,
                             const std::vector<uint64_t> &golden,
                             std::vector<uint64_t> &sigs);

    /** The failure set and SDC tally join the campaign signature. */
    static void
    digest(Fnv1a &h, const MeshRunResult &r)
    {
        h.mix(r.deadNodes);
        h.mix(r.downLinks);
        h.mix(r.survivorsWrong);
    }
};

/**
 * Runs the ring-traffic workload under a mesh campaign configuration;
 * its "mesh_campaign" stat group (outcome.*, runs, dead_nodes, ...)
 * feeds the registry JSON export. The campaign signature is identical
 * for every hostThreads value — the CI t1-vs-t4 cross-check pins it.
 */
using MeshCampaignRunner = Campaign<MeshWorkload>;

} // namespace gp::fault

#endif // GP_FAULT_MESH_CAMPAIGN_H
