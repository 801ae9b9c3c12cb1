// Global operator new/delete replacement backing every *.allocs_per_* metric
// and core.live_bytes_per_txn. Linked into nbcp-bench only.
#include "alloc_count.h"

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace nbcp::bench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_frees{0};
std::atomic<int64_t> g_live_bytes{0};

void* Allocate(std::size_t size, std::size_t align) noexcept {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void* AllocateOrThrow(std::size_t size, std::size_t align) {
  void* p = Allocate(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed)) {
    g_frees.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocSnapshot AllocNow() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_frees.load(std::memory_order_relaxed),
          g_live_bytes.load(std::memory_order_relaxed)};
}

}  // namespace nbcp::bench

using nbcp::bench::Allocate;
using nbcp::bench::AllocateOrThrow;
using nbcp::bench::Release;

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

void* operator new(std::size_t size) {
  return AllocateOrThrow(size, kDefaultAlign);
}
void* operator new[](std::size_t size) {
  return AllocateOrThrow(size, kDefaultAlign);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, kDefaultAlign);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, kDefaultAlign);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}
