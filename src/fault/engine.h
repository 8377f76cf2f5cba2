/**
 * @file
 * The fault-campaign engine shared by every campaign workload.
 *
 * A *campaign* is a set of independent simulated runs of one fixed
 * workload, each under a distinct per-run seed, with hardware faults
 * injected at configured sites/rates. The engine owns everything a
 * campaign does whatever it simulates: per-run seed derivation, the
 * lazy fault-free golden run, runOne()/runAll(), the outcome tally,
 * the campaign signature, publication to a stat group, and leaving
 * the injector disarmed. A workload (campaign.h: one machine;
 * mesh_campaign.h: the sharded mesh) supplies only the step that
 * builds a fresh system, injects, runs and classifies one run.
 *
 * Determinism: the whole campaign is a pure function of the
 * workload's configuration, master seed included. Per-run seeds
 * derive from the master seed by splitmix; every stochastic choice
 * flows through the per-site FaultInjector streams.
 */

#ifndef GP_FAULT_ENGINE_H
#define GP_FAULT_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "gp/word.h"
#include "sim/faultinject.h"
#include "sim/stats.h"

namespace gp::fault {

/**
 * Five-way outcome taxonomy of one injected run, in table order. Each
 * workload names the classes (its kLabels) and defines them for what
 * it simulates: see campaign.h and mesh_campaign.h.
 */
enum class Outcome : uint8_t
{
    Masked = 0,
    Corrected,
    DetectedFault,
    Sdc,
    CrashHang,
    Count,
};

inline constexpr unsigned kOutcomeCount =
    static_cast<unsigned>(Outcome::Count);

/** splitmix64 finalizer. */
constexpr uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** FNV-1a accumulator behind every campaign signature. */
struct Fnv1a
{
    uint64_t hash = 1469598103934665603ull; // FNV-1a offset basis

    void
    mix(uint64_t v)
    {
        hash ^= v;
        hash *= 1099511628211ull;
    }

    /** Mix a stored word, tag included. */
    void
    mix(Word w)
    {
        mix(w.bits());
        mix(w.isPointer() ? 0x9e3779b9ull : 0x51edull);
    }
};

/** Configuration every campaign shares, whatever it simulates. */
struct CampaignPlan
{
    /** Master seed; run r uses a seed derived from (seed, r). */
    uint64_t seed = 1;
    /** Number of injected runs. */
    unsigned runs = 100;
    /** Per-site injection rates etc. (the seed field is ignored:
     * each run installs its own). */
    sim::FaultConfig faults;
    /** Workload size: loop iterations. */
    uint64_t iterations = 150;
};

/** A per-run counter the engine sums over a campaign, by stat key. */
template <class Result>
struct SummedCounter
{
    const char *key;
    uint64_t Result::*field;
};

/** Aggregated campaign outcome table. */
template <class Result>
struct CampaignTotals
{
    uint64_t perOutcome[kOutcomeCount] = {};
    uint64_t runs = 0;
    uint64_t goldenCycles = 0; //!< cycles of the fault-free run
    /** Every counter in the workload's kSummed, summed over the runs
     * (the other fields stay zero). */
    Result sum;

    uint64_t
    outcome(Outcome o) const
    {
        return perOutcome[static_cast<unsigned>(o)];
    }
};

/**
 * One campaign over workload W. W provides:
 *
 *  - Config (a CampaignPlan) and Result (with outcome and cycles);
 *  - kStatGroup, the stat group the totals publish to, and
 *    kLabels[kOutcomeCount], the outcome names it prints and keys
 *    "outcome.<label>" counters by;
 *  - kSummed, the Result counters summed into CampaignTotals::sum;
 *  - run(config, faults, golden, sigs): build the system, arm the
 *    injector with *faults, which carry the run's seed (the golden
 *    run passes nullptr), run, disarm, and classify against
 *    @c golden. Appends the run's golden-comparable signatures (one
 *    per node) to @c sigs;
 *  - digest(h, result): the words of a result beyond its outcome and
 *    signatures that the campaign signature covers.
 */
template <class W>
class Campaign
{
  public:
    using Config = typename W::Config;
    using Result = typename W::Result;
    using Totals = CampaignTotals<Result>;

    explicit Campaign(const Config &config) : config_(config) {}

    ~Campaign()
    {
        // Never leave a half-finished campaign armed behind us.
        if (sim::FaultInjector::armed())
            sim::FaultInjector::instance().disarm();
    }

    /** Signatures of the fault-free run (lazy): one per node. */
    const std::vector<uint64_t> &
    goldenSignatures()
    {
        if (!goldenValid_) {
            goldenCycles_ = W::run(config_, nullptr, {}, golden_).cycles;
            goldenValid_ = true;
        }
        return golden_;
    }

    /** Digest of goldenSignatures(); the campaign signature starts
     * from it. */
    uint64_t
    goldenSignature()
    {
        Fnv1a h;
        for (uint64_t g : goldenSignatures())
            h.mix(g);
        return h.hash;
    }

    uint64_t
    goldenCycles()
    {
        goldenSignatures();
        return goldenCycles_;
    }

    /** Execute run @p index (0-based) under its derived seed. */
    Result
    runOne(unsigned index)
    {
        std::vector<uint64_t> sigs;
        return runIndexed(index, sigs);
    }

    /** Execute the whole campaign, aggregate, and publish the totals
     * to stats(). */
    Totals
    runAll()
    {
        Totals totals;
        totals.goldenCycles = goldenCycles();
        totals.runs = config_.runs;
        results_.clear();
        results_.reserve(config_.runs);
        Fnv1a h{goldenSignature()};
        for (unsigned i = 0; i < config_.runs; ++i) {
            std::vector<uint64_t> sigs;
            const Result r = runIndexed(i, sigs);
            results_.push_back(r);
            totals.perOutcome[unsigned(r.outcome)]++;
            for (const SummedCounter<Result> &c : W::kSummed)
                totals.sum.*c.field += r.*c.field;
            h.mix(uint64_t(r.outcome));
            W::digest(h, r);
            for (uint64_t s : sigs)
                h.mix(s);
        }
        campaignSignature_ = h.hash;

        // Publish the outcome table through the stats registry so the
        // JSON export (and tools/statdiff.py) can diff campaigns.
        stats_.counter("runs").set(totals.runs);
        for (const SummedCounter<Result> &c : W::kSummed)
            stats_.counter(c.key).set(totals.sum.*c.field);
        stats_.counter("golden_cycles").set(totals.goldenCycles);
        for (unsigned o = 0; o < kOutcomeCount; ++o)
            stats_.counter("outcome." + std::string(W::kLabels[o]))
                .set(totals.perOutcome[o]);
        return totals;
    }

    /** Per-run results of the last runAll(). */
    const std::vector<Result> &results() const { return results_; }

    /**
     * Deterministic digest of the whole campaign: the golden
     * signatures, then per run its outcome, W::digest words and
     * signatures. Valid after runAll().
     */
    uint64_t campaignSignature() const { return campaignSignature_; }

    const Config &config() const { return config_; }
    sim::StatGroup &stats() { return stats_; }

  private:
    Result
    runIndexed(unsigned index, std::vector<uint64_t> &sigs)
    {
        const std::vector<uint64_t> &golden = goldenSignatures();
        sim::FaultConfig faults = config_.faults;
        faults.seed = mix64(config_.seed ^ (0x9e3779b97f4a7c15ull *
                                            (uint64_t(index) + 1)));
        return W::run(config_, &faults, golden, sigs);
    }

    Config config_;
    bool goldenValid_ = false;
    std::vector<uint64_t> golden_;
    uint64_t goldenCycles_ = 0;
    uint64_t campaignSignature_ = 0;
    std::vector<Result> results_;
    sim::StatGroup stats_{W::kStatGroup};
};

} // namespace gp::fault

#endif // GP_FAULT_ENGINE_H
