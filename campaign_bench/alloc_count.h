// Process-wide allocation counter behind the replaced operator new/delete
// (alloc_count.cpp).
#pragma once

#include <cstdint>

namespace bench {

struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Counting is off by default; traced runs switch it on around the campaign.
void set_alloc_counting(bool on);

/// Allocations and requested bytes counted since process start.
AllocCounts alloc_counts();

}  // namespace bench
