/**
 * @file
 * Tests for the mesh fault-campaign runner (ISSUE 9).
 *
 * The properties CI gates on:
 *
 *  1. *Reproducibility*: a mesh campaign is a pure function of
 *     (MeshCampaignConfig) — outcome table, per-run failure sets,
 *     survivor signatures, everything, bit for bit — for EVERY
 *     host-thread count.
 *  2. *Zero-SDC under fail-stop*: node deaths and link failures are
 *     masked, absorbed (degraded-but-correct), or *detected* via the
 *     typed NodeUnreachable path; no survivor ever completes with a
 *     result that differs from the failure-free golden run.
 */

#include <gtest/gtest.h>

#include "fault/mesh_campaign.h"

namespace gp::fault {
namespace {

/** Small, fast geometry shared by every test here. */
MeshCampaignConfig
smallConfig()
{
    MeshCampaignConfig cc;
    cc.dimX = 2;
    cc.dimY = 2;
    cc.dimZ = 1;
    cc.runs = 6;
    cc.iterations = 24;
    return cc;
}

TEST(MeshCampaign, GoldenRunIsDeterministicAndFailureFree)
{
    MeshCampaignConfig cc = smallConfig();
    MeshCampaignRunner a(cc), b(cc);
    EXPECT_GT(a.goldenCycles(), 0u);
    EXPECT_EQ(a.goldenCycles(), b.goldenCycles());
    ASSERT_EQ(a.goldenSignatures().size(), 4u);
    EXPECT_EQ(a.goldenSignatures(), b.goldenSignatures());
    // Distinct per-node workloads: signatures must not collide.
    EXPECT_NE(a.goldenSignatures()[0],
              a.goldenSignatures()[1]);
}

TEST(MeshCampaign, ZeroRatesMeansEveryRunMasked)
{
    MeshCampaignConfig cc = smallConfig();
    MeshCampaignRunner runner(cc);
    const auto t = runner.runAll();
    EXPECT_EQ(t.runs, cc.runs);
    EXPECT_EQ(t.outcome(Outcome::Masked), cc.runs);
    EXPECT_EQ(t.sum.injections, 0u);
    EXPECT_EQ(t.sum.deadNodes, 0u);
}

TEST(MeshCampaign, SameConfigSameSignatureBitForBit)
{
    MeshCampaignConfig cc = smallConfig();
    cc.seed = 99;
    cc.faults.rate[unsigned(sim::FaultSite::NodeFailStop)] = 1e-3;
    cc.faults.rate[unsigned(sim::FaultSite::LinkDown)] = 2e-3;

    MeshCampaignRunner a(cc), b(cc);
    const auto ta = a.runAll();
    const auto tb = b.runAll();
    EXPECT_EQ(a.campaignSignature(), b.campaignSignature());
    for (unsigned o = 0; o < kOutcomeCount; ++o)
        EXPECT_EQ(ta.perOutcome[o], tb.perOutcome[o]);
    ASSERT_EQ(a.results().size(), b.results().size());
    for (size_t i = 0; i < a.results().size(); ++i) {
        EXPECT_EQ(a.results()[i].outcome, b.results()[i].outcome);
        EXPECT_EQ(a.results()[i].deadNodes,
                  b.results()[i].deadNodes);
        EXPECT_EQ(a.results()[i].cycles, b.results()[i].cycles);
    }
}

TEST(MeshCampaign, RunOneReproducesRunAll)
{
    MeshCampaignConfig cc = smallConfig();
    cc.seed = 99;
    cc.faults.rate[unsigned(sim::FaultSite::NodeFailStop)] = 1e-3;
    cc.faults.rate[unsigned(sim::FaultSite::LinkDown)] = 2e-3;

    MeshCampaignRunner runner(cc);
    runner.runAll();
    for (unsigned i = 0; i < cc.runs; ++i) {
        const MeshRunResult again = runner.runOne(i);
        const MeshRunResult &r = runner.results()[i];
        EXPECT_EQ(again.outcome, r.outcome) << "run " << i;
        EXPECT_EQ(again.cycles, r.cycles) << "run " << i;
        EXPECT_EQ(again.injections, r.injections) << "run " << i;
        EXPECT_EQ(again.deadNodes, r.deadNodes) << "run " << i;
        EXPECT_EQ(again.downLinks, r.downLinks) << "run " << i;
        EXPECT_EQ(again.survivorsWrong, r.survivorsWrong) << "run " << i;
    }
}

TEST(MeshCampaign, SignatureIdenticalAcrossHostThreads)
{
    // The tentpole invariant, at the campaign level: host threads
    // are a performance knob, never a semantics knob.
    MeshCampaignConfig cc = smallConfig();
    cc.seed = 99;
    cc.faults.rate[unsigned(sim::FaultSite::NodeFailStop)] = 1e-3;
    cc.faults.rate[unsigned(sim::FaultSite::LinkDown)] = 2e-3;

    MeshCampaignConfig cc2 = cc;
    cc2.hostThreads = 2;
    MeshCampaignRunner t1(cc), t2(cc2);
    t1.runAll();
    t2.runAll();
    EXPECT_EQ(t1.campaignSignature(), t2.campaignSignature());
}

TEST(MeshCampaign, FailStopIsDetectedNeverSilent)
{
    // The headline tripwire: with node deaths armed hard enough to
    // actually kill homes mid-run, survivors must take typed
    // NodeUnreachable faults (detected) or still match golden
    // (masked / degraded-but-correct). SDC stays zero; nothing
    // hangs.
    MeshCampaignConfig cc = smallConfig();
    cc.runs = 8;
    cc.faults.rate[unsigned(sim::FaultSite::NodeFailStop)] = 2e-3;

    MeshCampaignRunner runner(cc);
    const auto t = runner.runAll();
    EXPECT_GT(t.sum.injections, 0u)
        << "rate chosen so the campaign actually injects";
    EXPECT_GT(t.outcome(Outcome::DetectedFault), 0u);
    EXPECT_EQ(t.outcome(Outcome::Sdc), 0u);
    EXPECT_EQ(t.outcome(Outcome::CrashHang), 0u);
    for (const MeshRunResult &r : runner.results()) {
        EXPECT_EQ(r.survivorsWrong, 0u);
        if (r.outcome == Outcome::DetectedFault) {
            EXPECT_EQ(r.firstFault, Fault::NodeUnreachable);
        }
    }
}

TEST(MeshCampaign, LinkFailuresAreAbsorbedByRerouting)
{
    // Link-only failures leave every node alive; the route-around
    // machinery must absorb them — runs degrade but stay correct.
    MeshCampaignConfig cc = smallConfig();
    cc.runs = 8;
    cc.faults.rate[unsigned(sim::FaultSite::LinkDown)] = 4e-3;

    MeshCampaignRunner runner(cc);
    const auto t = runner.runAll();
    EXPECT_GT(t.sum.downLinks, 0u);
    EXPECT_EQ(t.sum.deadNodes, 0u);
    EXPECT_EQ(t.outcome(Outcome::Sdc), 0u);
    EXPECT_EQ(t.outcome(Outcome::CrashHang), 0u);
    EXPECT_GT(t.outcome(Outcome::Corrected) +
                  t.outcome(Outcome::DetectedFault),
              0u);
}

TEST(MeshCampaign, StatsExportCarriesTheOutcomeTable)
{
    MeshCampaignConfig cc = smallConfig();
    MeshCampaignRunner runner(cc);
    runner.runAll();
    EXPECT_EQ(runner.stats().get("runs"), cc.runs);
    EXPECT_EQ(runner.stats().get("outcome.masked"), cc.runs);
    EXPECT_EQ(runner.stats().get("outcome.silent-data-corruption"),
              0u);
}

} // namespace
} // namespace gp::fault
