/**
 * @file
 * Workload inputs and their expected outputs, computed in plain C++.
 *
 * Nothing here includes a simulator header: the expectations follow
 * from what each benchmark program is written to compute, so a defect
 * in the simulator cannot also make the expectation wrong.
 */

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include <cstdint>
#include <vector>

namespace perfbench {

/** splitmix64: the benchmark's one source of seeded inputs. */
class SplitMix
{
  public:
    explicit SplitMix(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t state_;
};

/** Seed of input set @p set of a workload run seeded by @p seed. */
uint64_t inputSeed(uint64_t seed, uint64_t set);

/** A permutation of 0..n-1 drawn from @p rng (Fisher-Yates). */
std::vector<uint64_t> permutation(SplitMix &rng, uint64_t n);

// ---------------------------------------------------------------- memsweep

/// Words in each memsweep thread's data segment (32 KiB).
inline constexpr uint64_t kSweepWords = 4096;

/** One memsweep thread: its placement and its data pattern. */
struct SweepThread
{
    uint64_t codeBase = 0;
    uint64_t dataBase = 0;
    uint64_t first = 0;  //!< value stored in word 0
    uint64_t step = 0;   //!< difference between consecutive words
    uint64_t passes = 0; //!< read sweeps after the store pass
};

/** Checksum the memsweep program leaves in r9. */
uint64_t sweepChecksum(const SweepThread &t);

// ---------------------------------------------------------------- gatecall

/** One gatecall job: requests through the two gates. */
struct GateInputs
{
    uint64_t requests = 0;
    uint64_t aluSteps = 0; //!< hash steps the server does per request
    uint64_t hash0 = 0;    //!< initial hash in the state line
};

/** Final (counter, hash) of the server's state line. */
struct GateState
{
    uint64_t counter = 0;
    uint64_t hash = 0;
};

GateState gateFinalState(const GateInputs &in);

// ------------------------------------------------------------------ mesh64

/// Words of the window each node's loop writes on every home node.
inline constexpr uint64_t kMeshWindowWords = 256;

/** One mesh64 job: per-node logical id and loop count. */
struct MeshInputs
{
    std::vector<uint64_t> ids;   //!< node -> logical id (a permutation)
    std::vector<uint64_t> iters; //!< node -> loop iterations
};

/**
 * Final contents of the window on home node @p home: word i holds
 * the logical id of the node whose iteration i targeted @p home, or
 * 0 if no node wrote it.
 */
std::vector<uint64_t> meshWindow(const MeshInputs &in, uint64_t home);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
