#include "ckpt/cocheck.hpp"

#include <memory>
#include <utility>

namespace dvc::ckpt {

void CocheckCoordinator::checkpoint(app::ParallelApp& application,
                                    const vm::GuestConfig& guest,
                                    storage::ImageManager& images,
                                    std::function<void(Result)> done) {
  struct Round {
    Result result;
    sim::Time started = 0;
    sim::Time parked_at = 0;
    std::function<void(Result)> done;
  };
  auto round = std::make_shared<Round>();
  round->started = sim_->now();
  round->done = std::move(done);

  const Footprint fp =
      footprint(MethodKind::kUserLevel, application.spec(), guest);
  // The honest restriction check: without network interception a
  // user-level library cannot cut a parallel job — the quiesce protocol
  // below IS that interception, so we proceed for any rank count; what
  // stays impossible is checkpointing an application that was not
  // re-linked (modelled by the caller choosing this coordinator at all).

  // 1. Park every rank at its next iteration boundary (library handshake
  //    costs one agent round trip).
  sim_->schedule_after(cfg_.agent_latency, [this, round, &application,
                                            &images, fp] {
    application.request_quiesce([this, round, &application, &images, fp] {
      // 2. Ranks are parked; wait for in-flight traffic to drain.
      // The poll loop refers to itself weakly; its pending event owns
      // it, so it is freed once the loop stops rescheduling.
      auto poll = std::make_shared<std::function<void()>>();
      *poll = [this, round, &application, &images, fp,
               self = std::weak_ptr<std::function<void()>>(poll)] {
        if (sim_->now() - round->started > cfg_.quiesce_timeout) {
          application.release_quiesce();
          round->result.ok = false;
          if (round->done) round->done(round->result);
          return;
        }
        if (!application.mesh_drained()) {
          sim_->schedule_after(cfg_.drain_poll,
                               [poll = self.lock()] { (*poll)(); });
          return;
        }
        // 3. Consistent cut achieved by cooperation: write each process
        //    image (user-level footprint) to the shared store.
        round->parked_at = sim_->now();
        round->result.quiesce_time = round->parked_at - round->started;
        const app::RankId ranks = application.size();
        const storage::CheckpointSetId set =
            images.open_set("cocheck", ranks);
        round->result.set = set;
        for (app::RankId r = 0; r < ranks; ++r) {
          images.add_member(set, r, fp.bytes);
          round->result.bytes_written += fp.bytes;
        }
        images.on_sealed(set, [this, round, &application] {
          // 4. Durable: resume the application.
          round->result.write_time = sim_->now() - round->parked_at;
          round->result.total_time = sim_->now() - round->started;
          round->result.ok = true;
          application.release_quiesce();
          if (round->done) round->done(round->result);
        });
      };
      (*poll)();
    });
  });
}

}  // namespace dvc::ckpt
