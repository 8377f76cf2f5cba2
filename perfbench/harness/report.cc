#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

size_t
samplesBeyond(size_t n, double q)
{
    return n ? n - 1 - size_t(std::floor(q * double(n - 1))) : 0;
}

void
printReport(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-26s = %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench
