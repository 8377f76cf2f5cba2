/**
 * @file
 * Order statistics and the benchmark's printed report.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Linearly interpolated quantile @p q in [0, 1]; 0 when empty. */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Samples of @p n lying above the quantile-@p q position. */
size_t samplesBeyond(size_t n, double q);

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * Print every metric as a "name = value unit" line, then the final
 * JSON line the benchmark contract asks for.
 */
void printReport(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
