#include "vm/hypervisor.hpp"

#include <stdexcept>
#include <utility>

namespace dvc::vm {

Hypervisor::Hypervisor(sim::Simulation& sim, hw::Fabric& fabric,
                       hw::NodeId node, Config cfg, sim::Rng rng)
    : sim_(&sim),
      fabric_(&fabric),
      node_(node),
      cfg_(cfg),
      rng_(rng),
      track_("vm/node" + std::to_string(node)) {}

bool Hypervisor::node_failed() const { return fabric_->node(node_).failed(); }

sim::Duration Hypervisor::cmd_latency() {
  return rng_.exponential_duration(cfg_.cmd_latency_mean);
}

void Hypervisor::boot_domain(VirtualMachine& vm,
                             std::function<void()> on_booted) {
  if (node_failed()) return;
  vm.place_on(fabric_->node(node_));
  residents_.insert(&vm);
  const sim::Time begin = sim_->now();
  const auto span = telemetry::begin_span(metrics_, begin, track_, "boot");
  sim_->schedule_after(cfg_.boot_time,
                       [this, &vm, begin, span, cb = std::move(on_booted)] {
                         telemetry::end_span(metrics_, span, sim_->now());
                         if (node_failed() ||
                             vm.state() == DomainState::kDead) {
                           return;
                         }
                         vm.resume();
                         telemetry::count(metrics_, boots_c_);
                         telemetry::observe(
                             metrics_, boot_s_h_,
                             sim::to_seconds(sim_->now() - begin));
                         if (cb) cb();
                       });
}

void Hypervisor::finish_save(std::uint64_t op_id,
                             const std::shared_ptr<SaveOp>& op, bool ok,
                             std::any state) {
  inflight_saves_.erase(op_id);
  if (op->finished) return;
  op->finished = true;
  telemetry::end_span(metrics_, op->span, sim_->now());
  if (!ok) telemetry::count(metrics_, save_failures_c_);
  if (op->cb) op->cb(ok, std::move(state));
}

void Hypervisor::save_domain(VirtualMachine& vm,
                             storage::ImageManager& images,
                             storage::CheckpointSetId set,
                             std::uint64_t member,
                             std::function<void(bool, std::any)> on_durable,
                             bool incremental, std::uint64_t epoch) {
  const sim::Time begin = sim_->now();
  auto op = std::make_shared<SaveOp>();
  op->cb = std::move(on_durable);
  op->span = telemetry::begin_span(metrics_, begin, track_, "save");
  const std::uint64_t op_id = next_save_op_++;
  if (cfg_.abort_saves_on_failure) inflight_saves_.emplace(op_id, op);
  sim_->schedule_after(cmd_latency(), [this, &vm, &images, set, member,
                                       incremental, epoch, begin, op,
                                       op_id] {
    if (op->finished) return;  // aborted by node death
    if (node_failed() || vm.state() == DomainState::kDead) {
      finish_save(op_id, op, false, std::any{});
      return;
    }
    // Fence before the guest freezes: a save ordered by a deposed
    // coordinator must not even pause the domain, let alone write.
    if (fenced(epoch)) {
      finish_save(op_id, op, false, std::any{});
      return;
    }
    vm.pause();
    // The guest is frozen: image its software state now. Everything the
    // snapshot sees (application position, TCP stacks) is exactly what a
    // byte copy of guest memory would contain.
    std::any app_state;
    if (vm.guest_software() != nullptr) {
      app_state = vm.guest_software()->snapshot_state();
    }
    // Full image, or just the pages dirtied since the last one.
    constexpr std::uint64_t kDirtyMapOverhead = 4ull << 20;
    const std::uint64_t image_bytes =
        (incremental && vm.has_image_baseline())
            ? std::min(vm.config().ram_bytes,
                       vm.dirty_bytes_since_last_image() +
                           kDirtyMapOverhead)
            : vm.config().ram_bytes;
    sim_->schedule_after(
        cfg_.save_overhead,
        [this, &vm, &images, set, member, image_bytes, epoch, begin, op,
         op_id, state = std::move(app_state)]() mutable {
          if (op->finished) return;
          if (node_failed() || vm.state() == DomainState::kDead) {
            finish_save(op_id, op, false, std::any{});
            return;
          }
          // The epoch may have moved while the device quiesce ran; the
          // image manager fences the actual write.
          if (fenced(epoch)) {
            finish_save(op_id, op, false, std::any{});
            return;
          }
          images.add_member(
              set, member, image_bytes,
              [this, &vm, image_bytes, begin, op, op_id,
               state = std::move(state)]() mutable {
                if (op->finished) return;
                if (vm.state() == DomainState::kDead) {
                  finish_save(op_id, op, false, std::any{});
                  return;
                }
                vm.mark_saved();
                vm.mark_imaged();
                ++saves_completed_;
                telemetry::count(metrics_, saves_c_);
                telemetry::count(metrics_, bytes_saved_c_, image_bytes);
                telemetry::observe(metrics_, save_s_h_,
                                   sim::to_seconds(sim_->now() - begin));
                finish_save(op_id, op, true, std::move(state));
              },
              epoch);
        });
  });
}

void Hypervisor::resume_domain(VirtualMachine& vm) {
  if (node_failed() || vm.state() == DomainState::kDead) return;
  vm.resume();
}

void Hypervisor::restore_domain(VirtualMachine& vm,
                                storage::ImageManager& images,
                                storage::CheckpointSetId set,
                                std::uint64_t member,
                                const std::any& app_state,
                                std::function<void(bool)> on_done,
                                std::uint64_t epoch) {
  if (fenced(epoch)) {
    if (on_done) on_done(false);
    return;
  }
  const storage::CheckpointSet* cs = images.find_set(set);
  if (cs == nullptr || !cs->sealed) {
    if (on_done) on_done(false);
    return;
  }
  const storage::MemberImage* image = nullptr;
  for (const auto& m : cs->members) {
    if (m.member == member) {
      image = &m;
      break;
    }
  }
  if (image == nullptr) {
    if (on_done) on_done(false);
    return;
  }
  vm.place_on(fabric_->node(node_));
  residents_.insert(&vm);
  const sim::Time begin = sim_->now();
  const auto span = telemetry::begin_span(metrics_, begin, track_, "restore");
  const std::uint64_t image_bytes = image->bytes;
  // Verified read with replica failover: the image manager tries every
  // copy and reports false only when none verifies (the set is then
  // marked damaged, which recovery uses to fall back a generation).
  images.read_member(
      set, member,
      [this, &vm, begin, span, image_bytes, state = &app_state,
       cb = std::move(on_done)](bool ok) mutable {
        if (!ok || node_failed()) {
          telemetry::count(metrics_, restore_failures_c_);
          telemetry::end_span(metrics_, span, sim_->now());
          if (cb) cb(false);
          return;
        }
        sim_->schedule_after(cfg_.restore_overhead,
                             [this, &vm, begin, span, image_bytes, state,
                              cb = std::move(cb)] {
                               telemetry::end_span(metrics_, span,
                                                   sim_->now());
                               if (node_failed()) {
                                 telemetry::count(metrics_,
                                                  restore_failures_c_);
                                 if (cb) cb(false);
                                 return;
                               }
                               vm.rollback_and_resume(*state);
                               ++restores_completed_;
                               telemetry::count(metrics_, restores_c_);
                               telemetry::count(metrics_, bytes_restored_c_,
                                                image_bytes);
                               telemetry::observe(
                                   metrics_, restore_s_h_,
                                   sim::to_seconds(sim_->now() - begin));
                               if (cb) cb(true);
                             });
      });
}

void Hypervisor::evict(VirtualMachine& vm) {
  if (vm.state() == DomainState::kRunning) {
    throw std::logic_error("cannot evict a running domain");
  }
  residents_.erase(&vm);
}

void Hypervisor::adopt(VirtualMachine& vm) {
  if (vm.state() == DomainState::kRunning) {
    throw std::logic_error("cannot adopt a running domain");
  }
  vm.place_on(fabric_->node(node_));
  residents_.insert(&vm);
}

void Hypervisor::destroy_domain(VirtualMachine& vm) {
  residents_.erase(&vm);
  vm.kill();
}

void Hypervisor::on_node_failure() {
  // Everything resident dies with the node; saved images in the shared
  // store survive (that is the whole point of DVC recovery).
  const auto residents = residents_;
  residents_.clear();
  if (!residents.empty()) {
    telemetry::count(metrics_, domains_killed_c_, residents.size());
    telemetry::instant(metrics_, sim_->now(), track_, "node_failure");
  }
  for (VirtualMachine* vm : residents) vm->kill();
  // Report every in-flight save as failed right now instead of waiting
  // for its next stage boundary; the coordinator learns of the dead round
  // immediately and can retry or trigger recovery.
  if (!inflight_saves_.empty()) {
    const auto ops = std::move(inflight_saves_);
    inflight_saves_.clear();
    for (const auto& [id, op] : ops) {
      if (op->finished) continue;
      op->finished = true;
      ++saves_aborted_;
      telemetry::count(metrics_, saves_aborted_c_);
      telemetry::count(metrics_, save_failures_c_);
      telemetry::end_span(metrics_, op->span, sim_->now());
      if (op->cb) op->cb(false, std::any{});
    }
  }
}

HypervisorFleet::HypervisorFleet(sim::Simulation& sim, hw::Fabric& fabric,
                                 Hypervisor::Config cfg, sim::Rng rng) {
  fleet_.reserve(fabric.node_count());
  for (hw::NodeId n = 0; n < fabric.node_count(); ++n) {
    fleet_.push_back(std::make_unique<Hypervisor>(
        sim, fabric, n, cfg, rng.fork(0x4859 + n)));
  }
  fabric.subscribe_failures([this](hw::NodeId n) {
    fleet_.at(n)->on_node_failure();
  });
}

}  // namespace dvc::vm
