/**
 * @file
 * The single-machine fault campaign (engine.h runs it).
 *
 * Each run strikes stored bits and TLB entries of one machine and is
 * classified into the five-way outcome taxonomy used by the
 * resilience literature:
 *
 *  - **masked**: faults were injected (or none fired) but the
 *    architectural result is bit-identical to the golden run and no
 *    hardware repair was needed;
 *  - **corrected**: the result is golden *because* a hardening
 *    mechanism repaired the damage (SECDED correction, page-walk
 *    retry, NoC retransmission);
 *  - **detected-fault**: the run terminated with an architectural
 *    fault — the hardware noticed (NotAPointer on a cleared tag,
 *    MemoryIntegrity from the code check, BoundsViolation from a
 *    mangled length field, ...). Detection is the security win: a
 *    flipped tag that faults cannot forge a capability;
 *  - **silent-data-corruption**: the run completed "successfully"
 *    but its memory image differs from golden — including any
 *    difference in *tag bits*, so a forged capability at rest is
 *    SDC even if the payload matches;
 *  - **crash-hang**: the run never completed; the machine watchdog
 *    converted the hang/livelock into WatchdogTimeout faults.
 *
 * The workload is a small self-contained loop chosen so that every
 * class is reachable: it keeps its loop bound *and* a capability to
 * its own data segment in memory (reloaded every iteration), writes
 * a result vector, and stores an accumulator — so a stored-bit flip
 * can variously be overwritten (masked), corrupted into the result
 * (SDC), strip/forge the reloaded capability (detected / SDC), or
 * blow up the loop bound (hang). Victim words are chosen from
 * *sorted* address lists, never from hash iteration order.
 */

#ifndef GP_FAULT_CAMPAIGN_H
#define GP_FAULT_CAMPAIGN_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "fault/engine.h"
#include "gp/fault.h"
#include "mem/ecc.h"

namespace gp::fault {

/** Full configuration of one single-machine campaign. */
struct CampaignConfig : CampaignPlan
{
    /** Hardening: code over stored words. */
    mem::EccMode ecc = mem::EccMode::None;
    /** Hardening: bounded page-walk retries. */
    unsigned walkRetries = 0;
    /** Watchdog cycle budget per run (converts hangs). */
    uint64_t watchdogCycles = 300000;
    /** Watchdog quiescence window per run. */
    uint64_t watchdogQuiescence = 5000;
    /**
     * Run with verifier-driven check elision armed: the harness
     * verifies the workload and registers its proof. Injected runs
     * auto-disable elision (an armed FaultInjector re-arms full
     * checks), so the outcome taxonomy must be bit-identical to the
     * elide-off campaign — the CI tripwire asserts exactly that.
     */
    bool elideChecks = false;
};

/** Everything observed about one run. */
struct RunResult
{
    Outcome outcome = Outcome::Masked;
    uint64_t cycles = 0;          //!< cycles executed
    uint64_t injections = 0;      //!< faults fired by the injector
    uint64_t eccCorrected = 0;    //!< SECDED repairs during the run
    uint64_t eccDetected = 0;     //!< uncorrectable detections
    uint64_t walkTransients = 0;  //!< transient walk failures retried
    Fault firstFault = Fault::None; //!< first architectural fault
    uint64_t signature = 0;       //!< final data-memory hash
};

/** The single-machine workload, as Campaign<> requires it. */
struct MachineWorkload
{
    using Config = CampaignConfig;
    using Result = RunResult;

    static constexpr const char *kStatGroup = "campaign";
    static constexpr std::string_view kLabels[kOutcomeCount] = {
        "masked", "corrected", "detected-fault",
        "silent-data-corruption", "crash-hang"};
    static constexpr SummedCounter<RunResult> kSummed[] = {
        {"injections", &RunResult::injections},
        {"ecc_corrected", &RunResult::eccCorrected},
        {"ecc_detected", &RunResult::eccDetected},
    };

    static RunResult run(const CampaignConfig &config,
                         const sim::FaultConfig *faults,
                         const std::vector<uint64_t> &golden,
                         std::vector<uint64_t> &sigs);

    /** The memory-image signature is the run's only signature. */
    static void digest(Fnv1a &, const RunResult &) {}
};

/**
 * Runs the standard workload under a campaign configuration; its
 * "campaign" stat group (outcome.*, runs, injections, ...) feeds the
 * registry JSON export.
 */
using CampaignRunner = Campaign<MachineWorkload>;

/** @return stable lower-case outcome name (stat/JSON key). */
constexpr std::string_view
outcomeName(Outcome o)
{
    return o < Outcome::Count ? MachineWorkload::kLabels[unsigned(o)]
                              : "unknown";
}

} // namespace gp::fault

#endif // GP_FAULT_CAMPAIGN_H
