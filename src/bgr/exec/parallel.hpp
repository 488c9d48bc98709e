#pragma once

#include <algorithm>
#include <cstdint>

#include "bgr/exec/exec_context.hpp"

namespace bgr {

/// Default iterations per chunk. Chunk partitioning depends only on the
/// problem size (never on the thread count); the grain trades scheduling
/// overhead against load balance.
inline constexpr std::int64_t kDefaultGrain = 64;

[[nodiscard]] inline std::int64_t chunk_count_for(std::int64_t n,
                                                  std::int64_t grain) {
  if (n <= 0) return 0;
  if (grain < 1) grain = 1;
  return (n + grain - 1) / grain;
}

/// Chunked parallel loop: fn(i) for every i in [0, n), each index exactly
/// once. Chunks may run concurrently; indices within a chunk run in order.
/// fn must not touch state shared with other iterations unless each
/// iteration writes a distinct slot.
template <typename Fn>
void parallel_for(ExecContext& exec, std::int64_t n, Fn&& fn,
                  std::int64_t grain = kDefaultGrain) {
  const std::int64_t chunks = chunk_count_for(n, grain);
  if (chunks == 0) return;
  exec.note_items(n);
  exec.run_chunks(chunks, [&](std::int64_t c) {
    const std::int64_t lo = c * grain;
    const std::int64_t hi = std::min<std::int64_t>(n, lo + grain);
    for (std::int64_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace bgr
