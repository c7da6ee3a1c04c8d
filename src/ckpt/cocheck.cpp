#include "ckpt/cocheck.hpp"

#include <optional>
#include <utility>

namespace dvc::ckpt {
namespace {

/// Library handshake latency per rank (signal + safe-point check).
constexpr sim::Duration kAgentLatency = 5 * sim::kMillisecond;
/// Drain poll period while waiting for in-flight traffic to land.
constexpr sim::Duration kDrainPoll = 20 * sim::kMillisecond;
/// Give up if the job has not parked and drained by then.
constexpr sim::Duration kQuiesceTimeout = 10 * sim::kMinute;

}  // namespace

void CocheckCoordinator::checkpoint(app::ParallelApp& application,
                                    const vm::GuestConfig& guest,
                                    storage::ImageManager& images,
                                    std::function<void(Result)> done) {
  // The honest restriction check: without network interception a
  // user-level library cannot cut a parallel job — the quiesce protocol
  // below IS that interception, so we proceed for any rank count; what
  // stays impossible is checkpointing an application that was not
  // re-linked (modelled by the caller choosing this coordinator at all).
  const std::uint32_t id =
      rounds_
          .open({.application = &application,
                 .images = &images,
                 .image_bytes = footprint(MethodKind::kUserLevel,
                                          application.spec(), guest)
                                    .bytes,
                 .started = sim_->now(),
                 .done = std::move(done)})
          .id;

  // 1. Park every rank at its next iteration boundary (library handshake
  //    costs one agent round trip).
  sim_->schedule_after(kAgentLatency, [this, id] {
    if (Round* round = rounds_.find(id)) {
      round->application->request_quiesce([this, id] { drain(id); });
    }
  });
}

void CocheckCoordinator::drain(std::uint32_t id) {
  Round* round = rounds_.find(id);
  if (round == nullptr) return;
  // 2. Ranks are parked; wait for in-flight traffic to drain.
  if (sim_->now() - round->started > kQuiesceTimeout) {
    std::optional<Round> over = rounds_.take(id);
    over->application->release_quiesce();
    over->result.ok = false;
    if (over->done) over->done(over->result);
    return;
  }
  if (!round->application->mesh_drained()) {
    sim_->schedule_after(kDrainPoll, [this, id] { drain(id); });
    return;
  }
  // 3. Consistent cut achieved by cooperation: write each process image
  //    (user-level footprint) to the shared store.
  round->result.quiesce_time = sim_->now() - round->started;
  const app::RankId ranks = round->application->size();
  storage::ImageManager& images = *round->images;
  const std::uint64_t bytes = round->image_bytes;
  const storage::CheckpointSetId set = images.open_set("cocheck", ranks);
  round->result.set = set;
  round->result.bytes_written += bytes * ranks;
  for (app::RankId r = 0; r < ranks; ++r) {
    images.add_member(set, r, bytes, [this, id] { member_durable(id); });
  }
}

void CocheckCoordinator::member_durable(std::uint32_t id) {
  const Round* round = rounds_.find(id);
  if (round == nullptr) return;
  const auto* set = round->images->find_set(round->result.set);
  if (set == nullptr || !set->sealed) return;
  // 4. Every image is durable: resume the application.
  std::optional<Round> sealed = rounds_.take(id);
  sealed->result.total_time = sim_->now() - sealed->started;
  sealed->result.write_time =
      sealed->result.total_time - sealed->result.quiesce_time;
  sealed->result.ok = true;
  sealed->application->release_quiesce();
  if (sealed->done) sealed->done(sealed->result);
}

}  // namespace dvc::ckpt
