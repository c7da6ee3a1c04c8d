#include "vm/hypervisor.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
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
void Hypervisor::drop_ops(sim::IdTable<Op>& ops,
                          std::span<const VirtualMachine* const> vms) {
  ops.erase_if([this, vms](const Op& op) {
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
  const sim::Time begin = sim_->now();
  const BootOp& op = boots_.open(
      {.vm = &vm, .begin = begin, .cb = std::move(on_booted),
       .span = telemetry::begin_span(metrics_, begin, track_, "boot")});
  after<&Hypervisor::boot_done>(kBootTime, op.id);
}

void Hypervisor::boot_done(std::uint64_t id) {
  const std::optional<BootOp> op = boots_.take(id);
  if (!op) return;  // destroyed mid-boot
  telemetry::end_span(metrics_, op->span, sim_->now());
  if (node_failed() || op->vm->state() == DomainState::kDead) return;
  op->vm->resume();
  telemetry::count(metrics_, boots_c_);
  telemetry::observe(metrics_, boot_s_h_,
                     sim::to_seconds(sim_->now() - op->begin));
  if (op->cb) op->cb();
}

void Hypervisor::finish_save(std::uint64_t id, bool ok) {
  // Out of the table before the report: the callback may start another
  // save on this node.
  std::optional<SaveOp> op = saves_.take(id);
  if (!op) return;
  telemetry::end_span(metrics_, op->span, sim_->now());
  if (!ok) telemetry::count(metrics_, save_failures_c_);
  if (op->cb) op->cb(ok, ok ? std::move(op->state) : std::any{});
}

void Hypervisor::save_domain(VirtualMachine& vm,
                             storage::ImageManager& images,
                             storage::CheckpointSetId set,
                             std::uint64_t member,
                             std::function<void(bool, std::any)> on_durable,
                             bool incremental, std::uint64_t epoch) {
  const sim::Time begin = sim_->now();
  const SaveOp& op = saves_.open(
      {.vm = &vm, .images = &images, .set = set, .member = member,
       .epoch = epoch, .begin = begin, .incremental = incremental,
       .cb = std::move(on_durable),
       .span = telemetry::begin_span(metrics_, begin, track_, "save")});
  after<&Hypervisor::save_freeze>(cmd_latency(), op.id);
}

void Hypervisor::save_freeze(std::uint64_t id) {
  SaveOp* op = saves_.find(id);
  if (op == nullptr) return;  // aborted by node death
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
  const SaveOp* op = saves_.find(id);
  if (op == nullptr) return;
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
  if (!streaming && !cfg_.abort_saves_on_failure) saves_.take(id);
}

void Hypervisor::save_durable(std::uint64_t id) {
  const SaveOp* op = saves_.find(id);
  if (op == nullptr) return;
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
  const sim::Time begin = sim_->now();
  const std::uint64_t id = restores_.open(
      {.vm = &vm, .begin = begin, .image_bytes = image->bytes,
       .state = &app_state, .cb = std::move(on_done),
       .span = telemetry::begin_span(metrics_, begin, track_, "restore")})
      .id;
  // Verified read with replica failover: the image manager tries every
  // copy and reports false only when none verifies (the set is then
  // marked damaged, which recovery uses to fall back a generation).
  images.read_member(set, member,
                     [this, id](bool ok) { restore_read(id, ok); });
}

void Hypervisor::restore_read(std::uint64_t id, bool ok) {
  if (restores_.find(id) == nullptr) return;
  if (!ok || node_failed()) {
    finish_restore(id, false);
    return;
  }
  after<&Hypervisor::restore_done>(kRestoreOverhead, id);
}

void Hypervisor::restore_done(std::uint64_t id) {
  const RestoreOp* op = restores_.find(id);
  if (op == nullptr) return;
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
  // The callback owns the snapshot `state` points at; the record leaves
  // the table first, since the callback may start another restore on this
  // node.
  const std::optional<RestoreOp> op = restores_.take(id);
  if (!op) return;
  telemetry::end_span(metrics_, op->span, sim_->now());
  if (!ok) telemetry::count(metrics_, restore_failures_c_);
  if (op->cb) op->cb(ok);
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
    std::vector<SaveOp> dying(std::make_move_iterator(saves_.begin()),
                              std::make_move_iterator(saves_.end()));
    saves_.clear();
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
