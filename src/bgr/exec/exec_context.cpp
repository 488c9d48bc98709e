#include "bgr/exec/exec_context.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "bgr/common/check.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/obs/trace.hpp"

namespace bgr {

namespace {

/// Region/chunk totals depend on whether the serial fast paths fire
/// (thread count 1 never fans out a region), so they live in the
/// nondeterministic namespace alongside the wall-time metrics.
struct ExecMetrics {
  Counter& regions = MetricsRegistry::global().counter(
      "exec.regions", MetricScope::kNonDeterministic);
  Counter& chunks = MetricsRegistry::global().counter(
      "exec.chunks", MetricScope::kNonDeterministic);
  Counter& items = MetricsRegistry::global().counter(
      "exec.items", MetricScope::kNonDeterministic);
};

ExecMetrics& exec_metrics() {
  static ExecMetrics* const m = new ExecMetrics();
  return *m;
}

}  // namespace

ExecContext::ExecContext(std::int32_t threads)
    : threads_(std::max<std::int32_t>(threads, 1)) {}

ExecContext::ExecContext(ThreadPool* shared_pool)
    : threads_(shared_pool != nullptr ? shared_pool->worker_count() + 1 : 1),
      borrowed_(shared_pool) {
  // A borrowed pool with zero workers degenerates to the serial path
  // (threads_ == 1), exactly like ExecContext(1).
  if (threads_ <= 1) borrowed_ = nullptr;
}

ExecContext::~ExecContext() = default;

std::int32_t ExecContext::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<std::int32_t>(static_cast<std::int32_t>(hw), 1);
}

void ExecContext::ensure_pool() {
  if (borrowed_ != nullptr) return;
  if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_ - 1);
}

std::int32_t ExecContext::current_slot() const {
  return ThreadPool::slot_in(active_pool());
}

void ExecContext::note_items(std::int64_t n) {
  stats_.items += n;
  exec_metrics().items.add(n);
}

namespace {

/// Shared state of one parallel region. Held by shared_ptr so a pool
/// worker that loses the race for the last chunk can still touch the
/// counters after the caller has returned.
struct Region {
  explicit Region(std::int64_t n,
                  const std::function<void(std::int64_t)>& body)
      : total(n), fn(&body) {}

  std::atomic<std::int64_t> next{0};
  std::int64_t total;
  const std::function<void(std::int64_t)>* fn;  // outlives the region wait

  std::mutex mutex;
  std::condition_variable done_cv;
  std::int64_t done = 0;
  std::exception_ptr error;

  /// Claims and runs chunks until none is left. A thread that ran any
  /// records one `worker` span around its whole loop and reports its
  /// chunks done after the span closed, so the span lies inside the region.
  void work() {
    std::int64_t c = next.fetch_add(1, std::memory_order_relaxed);
    if (c >= total) return;
    std::int64_t ran = 0;
    std::exception_ptr caught;
    {
      ScopedSpan span("worker", "exec");
      for (; c < total; c = next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          (*fn)(c);
        } catch (...) {
          if (!caught) caught = std::current_exception();
        }
        ++ran;
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    if (caught && !error) error = caught;
    done += ran;
    if (done == total) done_cv.notify_all();
  }
};

}  // namespace

void ExecContext::run_chunks(std::int64_t chunk_count,
                             const std::function<void(std::int64_t)>& chunk_fn) {
  if (chunk_count <= 0) return;
  ++stats_.regions;
  stats_.chunks += chunk_count;
  exec_metrics().regions.add(1);
  exec_metrics().chunks.add(chunk_count);
  if (serial() || chunk_count == 1) {
    ++stats_.serial_regions;
    for (std::int64_t c = 0; c < chunk_count; ++c) chunk_fn(c);
    return;
  }

  ensure_pool();
  ThreadPool* pool = active_pool();
  ScopedSpan region_span("parallel_region", "exec");
  auto region = std::make_shared<Region>(chunk_count, chunk_fn);
  const std::int64_t helpers =
      std::min<std::int64_t>(threads_ - 1, chunk_count - 1);
  for (std::int64_t i = 0; i < helpers; ++i) {
    pool->submit([region] { region->work(); });
  }
  region->work();  // the calling thread always participates

  std::unique_lock<std::mutex> lock(region->mutex);
  region->done_cv.wait(lock, [&] { return region->done == region->total; });
  if (region->error) std::rethrow_exception(region->error);
}

}  // namespace bgr
