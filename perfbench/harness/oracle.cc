#include "oracle.h"

#include <utility>

namespace perfbench {

uint64_t
inputSeed(uint64_t seed, uint64_t set)
{
    SplitMix mix(seed * 0x100000001b3ull + set);
    return mix.next();
}

std::vector<uint64_t>
permutation(SplitMix &rng, uint64_t n)
{
    std::vector<uint64_t> p(n);
    for (uint64_t i = 0; i < n; ++i)
        p[i] = i;
    for (uint64_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng.below(i)]);
    return p;
}

uint64_t
sweepChecksum(const SweepThread &t)
{
    // The store pass writes word j = first + j * step; each read pass
    // folds four words per iteration as ((sum + w0) ^ w1) + w2) ^ w3.
    uint64_t sum = 0;
    for (uint64_t pass = 0; pass < t.passes; ++pass) {
        for (uint64_t j = 0; j < kSweepWords; j += 4) {
            sum += t.first + j * t.step;
            sum ^= t.first + (j + 1) * t.step;
            sum += t.first + (j + 2) * t.step;
            sum ^= t.first + (j + 3) * t.step;
        }
    }
    return sum;
}

GateState
gateFinalState(const GateInputs &in)
{
    GateState s;
    s.hash = in.hash0;
    for (uint64_t r = 0; r < in.requests; ++r) {
        ++s.counter;
        for (uint64_t k = 0; k < in.aluSteps; ++k) {
            s.hash ^= s.counter;
            s.hash += s.hash << 7;
        }
    }
    return s;
}

std::vector<uint64_t>
meshWindow(const MeshInputs &in, uint64_t home)
{
    const uint64_t nodes = in.ids.size();
    std::vector<uint64_t> nodeOfId(nodes);
    for (uint64_t n = 0; n < nodes; ++n)
        nodeOfId[in.ids[n]] = n;

    // Iteration i of the node with logical id d writes d + 1 to word
    // i of home (i + d) mod nodes, so word i of this home belongs to
    // id (home - i) mod nodes.
    std::vector<uint64_t> window(kMeshWindowWords, 0);
    for (uint64_t i = 0; i < kMeshWindowWords; ++i) {
        const uint64_t id = (home + nodes * kMeshWindowWords - i) % nodes;
        if (in.iters[nodeOfId[id]] > i)
            window[i] = id + 1;
    }
    return window;
}

} // namespace perfbench
