#include "reference.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory_resource>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "measure.h"
#include "workloads.h"

namespace nbcp::bench {
namespace {

constexpr size_t kMaxThreads = 8;
constexpr size_t kArenaBytes = 1 << 20;

/// Per-thread memory for the unit, so its speed does not depend on the
/// state the program under test left in the shared heap.
alignas(64) std::byte g_arenas[kMaxThreads][kArenaBytes];

/// One fixed unit of work in the commit path's style: node-based ordered
/// and hashed maps keyed by short strings, a queue of indirect calls.
uint64_t ReferenceUnit(uint64_t x, std::byte* arena) {
  std::pmr::monotonic_buffer_resource memory(arena, kArenaBytes);
  std::pmr::map<std::pmr::string, uint64_t> ordered(&memory);
  std::pmr::unordered_map<uint64_t, std::pmr::string> hashed(&memory);
  std::pmr::deque<std::function<uint64_t(uint64_t)>> calls(&memory);
  uint64_t acc = 0;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::pmr::string key(Tag('k', (x >> 33) % 512), &memory);
    ordered[key] += x;
    hashed[(x >> 17) % 1024] = key;
    calls.push_back([x](uint64_t a) { return a ^ (x >> 7); });
    if (calls.size() > 64) {
      acc = calls.front()(acc);
      calls.pop_front();
    }
    auto it = ordered.lower_bound(
        std::pmr::string(Tag('k', (x >> 40) % 512), &memory));
    if (it != ordered.end()) acc += it->second;
  }
  return acc + ordered.size() + hashed.size();
}

}  // namespace

double ReferenceUnitNs(size_t threads) {
  threads = std::clamp<size_t>(threads, 1, kMaxThreads);
  static std::atomic<uint64_t> sink{0};
  std::vector<double> ns(threads);
  auto time_unit = [&ns](size_t k) {
    const int64_t start = NowNs();
    sink.fetch_add(ReferenceUnit(k + 1, g_arenas[k]),
                   std::memory_order_relaxed);
    ns[k] = static_cast<double>(NowNs() - start);
  };
  std::vector<std::thread> helpers;
  for (size_t k = 1; k < threads; ++k) helpers.emplace_back(time_unit, k);
  time_unit(0);
  for (std::thread& helper : helpers) helper.join();
  return Mean(ns);
}

double NominalReferenceNs(size_t threads) {
  return threads <= 1 ? 600e3 : 800e3;
}

}  // namespace nbcp::bench
