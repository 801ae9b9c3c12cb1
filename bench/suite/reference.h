// Host-speed reference for nbcp-bench. The benchmark runs on shared hosts,
// where other tenants slow a whole stretch of runs down at once. A fixed
// unit of work timed right before each CommitSystem tracks that, and the
// system's times are scaled by NominalReferenceNs / ReferenceUnitNs.
#ifndef NBCP_BENCH_SUITE_REFERENCE_H_
#define NBCP_BENCH_SUITE_REFERENCE_H_

#include <cstddef>

namespace nbcp::bench {

/// Times the reference unit on `threads` threads at once (the caller plus
/// helpers) and returns the mean, ns. A workload contends for every core it
/// keeps busy, so it passes its busy thread count.
double ReferenceUnitNs(size_t threads);

/// What the unit takes on `threads` threads on a quiet host: scaled times
/// read as on a host where the unit takes this long.
double NominalReferenceNs(size_t threads);

}  // namespace nbcp::bench

#endif  // NBCP_BENCH_SUITE_REFERENCE_H_
