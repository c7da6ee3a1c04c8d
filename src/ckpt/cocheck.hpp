#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "app/workload.hpp"
#include "ckpt/methods.hpp"
#include "sim/id_table.hpp"
#include "sim/simulation.hpp"
#include "storage/image_manager.hpp"

namespace dvc::ckpt {

/// The §2.1 baseline, implemented: CoCheck/BLCR-style *user-level* parallel
/// checkpointing. The application must be re-linked against a checkpoint
/// library; at checkpoint time the library parks every rank at a safe
/// point, lets the network drain (the "consistent cut" is produced by
/// cooperation, not by freezing guests), then writes each process image.
///
/// Contrast with LSC: no hypervisor, smaller images (process, not guest),
/// but the application must cooperate — exactly the restriction DVC's
/// transparency removes. The quiesce takes application-timescale time
/// (up to a full iteration) instead of clock-skew time.
class CocheckCoordinator final {
 public:
  struct Result {
    bool ok = false;
    sim::Duration quiesce_time = 0;  ///< request -> parked + drained
    sim::Duration write_time = 0;    ///< process images -> durable
    sim::Duration total_time = 0;
    std::uint64_t bytes_written = 0;
    storage::CheckpointSetId set = storage::kInvalidCheckpointSet;
  };

  explicit CocheckCoordinator(sim::Simulation& sim) : sim_(&sim) {}

  /// Checkpoints a running application: park, drain, write, resume.
  /// The guest VMs never pause — the *application* does.
  void checkpoint(app::ParallelApp& application,
                  const vm::GuestConfig& guest,
                  storage::ImageManager& images,
                  std::function<void(Result)> done);

 private:
  /// One checkpoint() call, from the request until `done` runs. Its
  /// quiesce, drain-poll and member-durable events carry `(this, id)`.
  struct Round {
    std::uint32_t id = 0;
    app::ParallelApp* application = nullptr;
    storage::ImageManager* images = nullptr;
    std::uint64_t image_bytes = 0;  ///< one rank's process image
    Result result{};
    sim::Time started = 0;
    std::function<void(Result)> done{};
  };

  /// Ranks are parked: write the images once the mesh has drained,
  /// polling until it has, or give up at the quiesce timeout.
  void drain(std::uint32_t id);
  /// One member image is durable; the last one, whose landing sealed the
  /// set, ends the round and resumes the application.
  void member_durable(std::uint32_t id);

  sim::Simulation* sim_;
  sim::IdTable<Round, std::uint32_t> rounds_;
};

}  // namespace dvc::ckpt
