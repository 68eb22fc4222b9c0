// Heap allocations per simulated second of the paper's validation
// workloads, in steady state.
//
// Everything scheduled, posted, raised, armed or sent above the event
// kernel is an inline callback, task names are interned ids and the apps
// reuse their per-tick buffers, so what still allocates is the data of a
// frame: a payload, its byte image, the receiver's copy.  This test pins
// that budget.  It replaces the global operator new/delete with counting
// versions, so it is an executable of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/ban_network.hpp"
#include "core/paper_experiments.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* counted_alloc_nothrow(std::size_t size, std::size_t align) noexcept {
  try {
    return counted_alloc(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, kDefaultAlign); }
void* operator new[](std::size_t n) { return counted_alloc(n, kDefaultAlign); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, kDefaultAlign);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace bansim::core {
namespace {

using sim::Duration;
using sim::TimePoint;

/// Allocations per simulated second over 60 s, after the join and 10 s of
/// warm-up.
double steady_allocation_rate(BanConfig config, Fidelity fidelity) {
  config.fidelity = fidelity;
  BanNetwork net{config};
  net.start();
  EXPECT_TRUE(net.run_until_joined(Duration::seconds(1),
                                   TimePoint::zero() + Duration::seconds(30)));
  net.run_until(net.simulator().now() + Duration::seconds(10));
  const std::uint64_t before = g_allocations.load();
  net.run_until(net.simulator().now() + Duration::seconds(60));
  const std::uint64_t after = g_allocations.load();
  return static_cast<double>(after - before) / 60.0;
}

struct Budget {
  const char* name;
  BanConfig config;
  /// Ceiling in allocations per simulated second, at either fidelity.
  double ceiling;
};

TEST(AllocationBudget, PaperWorkloadsStayWithinTheirSteadyStateBudget) {
  PaperSetup setup;
  // Table 1 row 1 (ECG streaming, static TDMA, 30 ms: ~200 frames/s) and
  // Table 3 row 4 (R-peak, static TDMA, 120 ms), measured at 941/s and
  // 190/s when pinned.  A std::string or std::function on a per-event
  // path costs thousands per second on top.
  const Budget budgets[] = {
      {"ecg_streaming/static_30ms",
       streaming_static_config(setup, Duration::milliseconds(30)), 950.0},
      {"rpeak/static_120ms",
       rpeak_static_config(setup, Duration::milliseconds(120)), 195.0},
  };
  for (const Budget& b : budgets) {
    for (const Fidelity fidelity : {Fidelity::kReference, Fidelity::kModel}) {
      const double rate = steady_allocation_rate(b.config, fidelity);
      std::printf("%s, %s fidelity: %.1f allocations/s\n", b.name,
                  fidelity == Fidelity::kReference ? "reference" : "model",
                  rate);
      EXPECT_LE(rate, b.ceiling) << b.name;
    }
  }
}

}  // namespace
}  // namespace bansim::core
