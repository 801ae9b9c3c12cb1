// The --trace 1 run of nbcp-bench: facade spans around every driver call,
// counts from the public stats, and the layer ladder, which replays the
// workload's own inputs into each layer in isolation and times the calls.
#ifndef NBCP_BENCH_SUITE_LADDER_H_
#define NBCP_BENCH_SUITE_LADDER_H_

#include <string>
#include <vector>

#include "obs/json.h"
#include "workloads.h"

namespace nbcp::bench {

/// Measures every per-layer metric of `w` (already sized) into `metrics`
/// (the contract's {"name": {"value", "unit"}} object) and the details into
/// `run`. The facade spans recorded on the way are returned in `spans`.
void PerLayer(const Workload& w, uint64_t seed, double seconds,
              Json* metrics, Json* run, uint64_t* attempted, ErrorLog* errors,
              std::vector<FacadeSpan>* spans);

/// One JSON object per span: name, id, parent, txn, start_ns, end_ns.
std::string SpansJsonl(const std::vector<FacadeSpan>& spans);

}  // namespace nbcp::bench

#endif  // NBCP_BENCH_SUITE_LADDER_H_
