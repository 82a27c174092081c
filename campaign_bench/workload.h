// Shared types of the campaign benchmark harness: the workload table and the
// committed-trial log that both the campaign phase and the traced replay use.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "snake/controller.h"

namespace bench {

struct WorkloadSpec {
  const char* name;
  snake::core::Protocol protocol;
  const char* tcp_profile;   ///< ignored for DCCP
  bool greybox;              ///< --search greybox instead of the grid
  bool enlarged_space;       ///< bench_campaign's --space enlarged ladders
  std::uint64_t strategies;  ///< strategy budget (CampaignConfig::max_strategies)
  double duration_s;         ///< virtual test duration per run
};

/// One trial the backend ran, in dispatch (= commit) order.
struct CommittedTrial {
  std::uint64_t seq = 0;
  snake::strategy::Strategy strat;
  snake::core::TrialRecord record;
};

}  // namespace bench
