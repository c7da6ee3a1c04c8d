#pragma once

// The benchmark's clock for host time. Wall time on a shared machine moves
// with whatever else the machine runs: other tenants take the CPU away
// (steal) or slow it down (shared cores, caches, clock frequency). So host
// times are measured as the worker thread's CPU time, which leaves out the
// time the thread was not running, and are scaled by a reference task run
// on the same thread, which slows down with the machine.
//
// The reference task mimics the simulator's hot loop (a binary-heap event
// queue of std::function callbacks, hash-map state, small allocations) but
// uses none of the simulator's code: a change to the simulator leaves its
// cost unchanged.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dvcbench {

/// CPU time the calling thread has used, in seconds.
[[nodiscard]] double thread_cpu_s();

/// Runs the reference task once (about half a millisecond of CPU on a
/// current server core) and returns its checksum, the same on every call.
[[nodiscard]] std::uint64_t reference_task();

/// The checksum reference_task() returns.
inline constexpr std::uint64_t kReferenceChecksum = 0x23413c3df0a57f32ULL;

/// A reference second is the CPU time in which the machine runs
/// 1 / kReferenceTaskS reference tasks.
inline constexpr double kReferenceTaskS = 0.0005;

/// Factor from CPU seconds to reference seconds, given the CPU time of
/// each reference task run during the measurement (median of them).
[[nodiscard]] double reference_scale(std::vector<double> task_cpu_s);

/// Reference tasks whose median sets the factor at one point of a series.
inline constexpr std::size_t kReferenceWindow = 9;

/// The same factor at each point of a time-ordered series of reference
/// task times, from the kReferenceWindow tasks nearest to it: the machine's
/// speed changes during a run, and each cell is scaled by the speed around
/// it.
[[nodiscard]] std::vector<double> reference_scales(
    const std::vector<double>& task_cpu_s);

}  // namespace dvcbench
