#include "ckpt/cocheck.hpp"

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

struct CocheckCoordinator::Round {
  app::ParallelApp* application = nullptr;
  storage::ImageManager* images = nullptr;
  std::uint64_t image_bytes = 0;  ///< one rank's process image
  Result result;
  sim::Time started = 0;
  std::function<void(Result)> done;
};

void CocheckCoordinator::checkpoint(app::ParallelApp& application,
                                    const vm::GuestConfig& guest,
                                    storage::ImageManager& images,
                                    std::function<void(Result)> done) {
  auto round = std::make_shared<Round>();
  round->application = &application;
  round->images = &images;
  // The honest restriction check: without network interception a
  // user-level library cannot cut a parallel job — the quiesce protocol
  // below IS that interception, so we proceed for any rank count; what
  // stays impossible is checkpointing an application that was not
  // re-linked (modelled by the caller choosing this coordinator at all).
  round->image_bytes =
      footprint(MethodKind::kUserLevel, application.spec(), guest).bytes;
  round->started = sim_->now();
  round->done = std::move(done);

  // 1. Park every rank at its next iteration boundary (library handshake
  //    costs one agent round trip).
  sim_->schedule_after(kAgentLatency, [this, round] {
    round->application->request_quiesce([this, round] { drain(round); });
  });
}

void CocheckCoordinator::drain(const std::shared_ptr<Round>& round) {
  // 2. Ranks are parked; wait for in-flight traffic to drain.
  if (sim_->now() - round->started > kQuiesceTimeout) {
    round->application->release_quiesce();
    round->result.ok = false;
    if (round->done) round->done(round->result);
    return;
  }
  if (!round->application->mesh_drained()) {
    sim_->schedule_after(kDrainPoll, [this, round] { drain(round); });
    return;
  }
  // 3. Consistent cut achieved by cooperation: write each process image
  //    (user-level footprint) to the shared store.
  round->result.quiesce_time = sim_->now() - round->started;
  const app::RankId ranks = round->application->size();
  round->result.set = round->images->open_set("cocheck", ranks);
  for (app::RankId r = 0; r < ranks; ++r) {
    round->images->add_member(round->result.set, r, round->image_bytes,
                              [this, round] { member_durable(round); });
    round->result.bytes_written += round->image_bytes;
  }
}

void CocheckCoordinator::member_durable(const std::shared_ptr<Round>& round) {
  const auto* set = round->images->find_set(round->result.set);
  if (set == nullptr || !set->sealed) return;
  // 4. Every image is durable: resume the application.
  round->result.total_time = sim_->now() - round->started;
  round->result.write_time =
      round->result.total_time - round->result.quiesce_time;
  round->result.ok = true;
  round->application->release_quiesce();
  if (round->done) round->done(round->result);
}

}  // namespace dvc::ckpt
