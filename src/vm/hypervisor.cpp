#include "vm/hypervisor.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

namespace dvc::vm {
namespace {

/// Local `xm save` command processing before the guest freezes
/// (exponential mean).
constexpr sim::Duration kCmdLatencyMean = 2 * sim::kMillisecond;
/// Fixed device-quiesce cost paid before guest memory starts streaming.
constexpr sim::Duration kSaveOverhead = 200 * sim::kMillisecond;

}  // namespace

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
  return rng_.exponential_duration(kCmdLatencyMean);
}

template <class Op>
typename std::vector<Op>::iterator Hypervisor::find_op(std::vector<Op>& ops,
                                                       std::uint64_t id) {
  const auto it = std::lower_bound(
      ops.begin(), ops.end(), id,
      [](const Op& op, std::uint64_t want) { return op.id < want; });
  return it != ops.end() && it->id == id ? it : ops.end();
}

template <class Op>
void Hypervisor::drop_ops(std::vector<Op>& ops,
                          std::span<const VirtualMachine* const> vms) {
  std::erase_if(ops, [this, vms](const Op& op) {
    if (!std::binary_search(vms.begin(), vms.end(), op.vm,
                            std::less<const VirtualMachine*>())) {
      return false;
    }
    telemetry::end_span(metrics_, op.span, sim_->now());
    return true;
  });
}

void Hypervisor::boot_domain(VirtualMachine& vm,
                             std::function<void()> on_booted) {
  if (node_failed()) return;
  vm.place_on(fabric_->node(node_));
  residents_.insert(&vm);
  const std::uint64_t id = next_op_++;
  BootOp& op = boots_.emplace_back();
  op.id = id;
  op.vm = &vm;
  op.begin = sim_->now();
  op.cb = std::move(on_booted);
  op.span = telemetry::begin_span(metrics_, op.begin, track_, "boot");
  after<&Hypervisor::boot_done>(kBootTime, id);
}

void Hypervisor::boot_done(std::uint64_t id) {
  const auto op = find_op(boots_, id);
  if (op == boots_.end()) return;  // destroyed mid-boot
  telemetry::end_span(metrics_, op->span, sim_->now());
  VirtualMachine& vm = *op->vm;
  const sim::Time begin = op->begin;
  const std::function<void()> cb = std::move(op->cb);
  boots_.erase(op);
  if (node_failed() || vm.state() == DomainState::kDead) return;
  vm.resume();
  telemetry::count(metrics_, boots_c_);
  telemetry::observe(metrics_, boot_s_h_,
                     sim::to_seconds(sim_->now() - begin));
  if (cb) cb();
}

void Hypervisor::finish_save(std::uint64_t id, bool ok) {
  const auto op = find_op(saves_, id);
  if (op == saves_.end()) return;
  // Take what the report needs before the entry goes: the callback may
  // start another save on this node.
  std::function<void(bool, std::any)> cb = std::move(op->cb);
  std::any state = ok ? std::move(op->state) : std::any{};
  telemetry::end_span(metrics_, op->span, sim_->now());
  saves_.erase(op);
  if (!ok) telemetry::count(metrics_, save_failures_c_);
  if (cb) cb(ok, std::move(state));
}

void Hypervisor::save_domain(VirtualMachine& vm,
                             storage::ImageManager& images,
                             storage::CheckpointSetId set,
                             std::uint64_t member,
                             std::function<void(bool, std::any)> on_durable,
                             bool incremental, std::uint64_t epoch) {
  const std::uint64_t id = next_op_++;
  SaveOp& op = saves_.emplace_back();
  op.id = id;
  op.vm = &vm;
  op.images = &images;
  op.set = set;
  op.member = member;
  op.epoch = epoch;
  op.begin = sim_->now();
  op.incremental = incremental;
  op.cb = std::move(on_durable);
  op.span = telemetry::begin_span(metrics_, op.begin, track_, "save");
  after<&Hypervisor::save_freeze>(cmd_latency(), id);
}

void Hypervisor::save_freeze(std::uint64_t id) {
  const auto op = find_op(saves_, id);
  if (op == saves_.end()) return;  // aborted by node death
  VirtualMachine& vm = *op->vm;
  if (node_failed() || vm.state() == DomainState::kDead) {
    finish_save(id, false);
    return;
  }
  // Fence before the guest freezes: a save ordered by a deposed
  // coordinator must not even pause the domain, let alone write.
  if (fenced(op->epoch)) {
    finish_save(id, false);
    return;
  }
  vm.pause();
  // The guest is frozen: image its software state now. Everything the
  // snapshot sees (application position, TCP stacks) is exactly what a
  // byte copy of guest memory would contain.
  if (vm.guest_software() != nullptr) {
    op->state = vm.guest_software()->snapshot_state();
  }
  // Full image, or just the pages dirtied since the last one.
  constexpr std::uint64_t kDirtyMapOverhead = 4ull << 20;
  op->image_bytes =
      (op->incremental && vm.has_image_baseline())
          ? std::min(vm.config().ram_bytes,
                     vm.dirty_bytes_since_last_image() + kDirtyMapOverhead)
          : vm.config().ram_bytes;
  after<&Hypervisor::save_stream>(kSaveOverhead, id);
}

void Hypervisor::save_stream(std::uint64_t id) {
  const auto op = find_op(saves_, id);
  if (op == saves_.end()) return;
  if (node_failed() || op->vm->state() == DomainState::kDead) {
    finish_save(id, false);
    return;
  }
  // The epoch may have moved while the device quiesce ran; the image
  // manager fences the actual write.
  if (fenced(op->epoch)) {
    finish_save(id, false);
    return;
  }
  const bool streaming = op->images->add_member(
      op->set, op->member, op->image_bytes, [this, id] { save_durable(id); },
      op->epoch);
  // A write the image manager refused never completes, so nothing would
  // ever report the save: drop it, unless a node failure may abort it.
  if (!streaming && !cfg_.abort_saves_on_failure) {
    const auto refused = find_op(saves_, id);
    if (refused != saves_.end()) saves_.erase(refused);
  }
}

void Hypervisor::save_durable(std::uint64_t id) {
  const auto op = find_op(saves_, id);
  if (op == saves_.end()) return;
  VirtualMachine& vm = *op->vm;
  if (vm.state() == DomainState::kDead) {
    finish_save(id, false);
    return;
  }
  vm.mark_saved();
  vm.mark_imaged();
  telemetry::count(metrics_, saves_c_);
  telemetry::count(metrics_, bytes_saved_c_, op->image_bytes);
  telemetry::observe(metrics_, save_s_h_,
                     sim::to_seconds(sim_->now() - op->begin));
  finish_save(id, true);
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
  const std::uint64_t id = next_op_++;
  RestoreOp& op = restores_.emplace_back();
  op.id = id;
  op.vm = &vm;
  op.begin = sim_->now();
  op.image_bytes = image->bytes;
  op.state = &app_state;
  op.cb = std::move(on_done);
  op.span = telemetry::begin_span(metrics_, op.begin, track_, "restore");
  // Verified read with replica failover: the image manager tries every
  // copy and reports false only when none verifies (the set is then
  // marked damaged, which recovery uses to fall back a generation).
  images.read_member(set, member,
                     [this, id](bool ok) { restore_read(id, ok); });
}

void Hypervisor::restore_read(std::uint64_t id, bool ok) {
  if (find_op(restores_, id) == restores_.end()) return;
  if (!ok || node_failed()) {
    finish_restore(id, false);
    return;
  }
  after<&Hypervisor::restore_done>(kRestoreOverhead, id);
}

void Hypervisor::restore_done(std::uint64_t id) {
  const auto op = find_op(restores_, id);
  if (op == restores_.end()) return;
  if (node_failed()) {
    finish_restore(id, false);
    return;
  }
  const sim::Time begin = op->begin;
  const std::uint64_t image_bytes = op->image_bytes;
  op->vm->rollback_and_resume(*op->state);
  telemetry::count(metrics_, restores_c_);
  telemetry::count(metrics_, bytes_restored_c_, image_bytes);
  telemetry::observe(metrics_, restore_s_h_,
                     sim::to_seconds(sim_->now() - begin));
  finish_restore(id, true);
}

void Hypervisor::finish_restore(std::uint64_t id, bool ok) {
  const auto op = find_op(restores_, id);
  if (op == restores_.end()) return;
  // The callback owns the snapshot `state` points at; take it before the
  // entry goes, since it may start another restore on this node.
  const std::function<void(bool)> cb = std::move(op->cb);
  telemetry::end_span(metrics_, op->span, sim_->now());
  restores_.erase(op);
  if (!ok) telemetry::count(metrics_, restore_failures_c_);
  if (cb) cb(ok);
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
  const VirtualMachine* const one = &vm;
  end_ops({&one, 1});
  vm.kill();
}

void Hypervisor::end_ops(std::span<const VirtualMachine* const> vms) {
  drop_ops(boots_, vms);
  drop_ops(saves_, vms);
  drop_ops(restores_, vms);
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
  // immediately and can retry or trigger recovery. A save a callback
  // starts lands in the emptied table and is not aborted here.
  if (cfg_.abort_saves_on_failure && !saves_.empty()) {
    std::vector<SaveOp> dying;
    dying.swap(saves_);
    for (SaveOp& op : dying) {
      telemetry::count(metrics_, saves_aborted_c_);
      telemetry::count(metrics_, save_failures_c_);
      telemetry::end_span(metrics_, op.span, sim_->now());
      if (op.cb) op.cb(false, std::any{});
    }
  }
}

void HypervisorFleet::destroy_domains(std::span<VirtualMachine* const> vms) {
  std::vector<const VirtualMachine*> sorted(vms.begin(), vms.end());
  std::sort(sorted.begin(), sorted.end(), std::less<const VirtualMachine*>());
  for (auto& h : fleet_) h->end_ops(sorted);
  for (VirtualMachine* vm : vms) {
    if (vm->placed_on() == hw::kInvalidNode) {
      vm->kill();
    } else {
      on_node(vm->placed_on()).destroy_domain(*vm);
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
