#pragma once

// The `fleet` workload: a multi-tenant DVC machine room. Each cell replays
// one seeded arrival trace of MPI jobs through rm::Scheduler and the
// core::VirtualJobRunner job lifecycle on 2 x 32 nodes (spanning, EASY
// backfill), each job a virtual cluster under periodic LSC checkpoints.
// Jobs are submitted at their due simulated time: an open loop in
// simulated time.

#include <cstdint>
#include <memory>

#include "workloads.hpp"

namespace dvcbench {

/// The fleet workload for `seed`: 100 cells, each its own arrival trace.
[[nodiscard]] std::unique_ptr<Workload> make_fleet_workload(
    std::uint64_t seed);

}  // namespace dvcbench
