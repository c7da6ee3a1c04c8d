#include "fault/fault_injector.hpp"

#include <stdexcept>
#include <string>

namespace dvc::fault {

namespace {
constexpr std::string_view kTrack = "fault";
}  // namespace

FaultInjector::PerKind::PerKind(std::string_view stem) {
  for (std::size_t k = 0; k < kKinds; ++k) {
    counters.emplace_back(std::string(stem) + "." +
                          std::string(to_string(static_cast<FaultKind>(k))));
  }
}

telemetry::CounterHandle& FaultInjector::PerKind::operator[](FaultKind k) {
  return counters[static_cast<std::size_t>(k)];
}

FaultInjector::FaultInjector(sim::Simulation& sim, Hooks hooks,
                             telemetry::MetricsRegistry* metrics)
    : sim_(&sim), hooks_(hooks), metrics_(metrics) {
  if (metrics_ == nullptr) {
    throw std::invalid_argument("FaultInjector: null metrics registry");
  }
  if (hooks_.store != nullptr) {
    disk_write_base_ = hooks_.store->write_pool().capacity_bps();
    disk_read_base_ = hooks_.store->read_pool().capacity_bps();
  }
}

void FaultInjector::arm(const FaultPlan& plan) {
  for (const FaultEvent& e : plan.schedule()) {
    const std::size_t i = events_.size();
    events_.push_back(e);
    // Daemon events: a fault schedule must not keep a finished job alive.
    const auto fire = [this, i] { apply(i); };
    static_assert(sim::Simulation::stores_inline<decltype(fire)>);
    sim_->schedule_daemon_at(e.at, fire);
  }
}

void FaultInjector::lift_after(std::size_t i) {
  const auto fire = [this, i] { lift(events_[i]); };
  static_assert(sim::Simulation::stores_inline<decltype(fire)>);
  sim_->schedule_daemon_after(events_[i].down_for, fire);
}

std::uint64_t FaultInjector::directed_key(std::uint32_t from,
                                          std::uint32_t to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

void FaultInjector::skip(const FaultEvent& e) {
  telemetry::count(metrics_, "fault.skipped");
  telemetry::count(metrics_, skipped_c_[e.kind]);
}

void FaultInjector::apply(std::size_t i) {
  const FaultEvent& e = events_[i];
  switch (e.kind) {
    case FaultKind::kNodeCrash: {
      if (hooks_.fabric == nullptr ||
          e.node >= hooks_.fabric->node_count() ||
          hooks_.fabric->node(e.node).failed()) {
        skip(e);
        return;
      }
      hooks_.fabric->fail_node(e.node);
      if (e.down_for > 0) {
        lift_after(i);
      }
      break;
    }
    case FaultKind::kLinkDown: {
      if (hooks_.fabric == nullptr || e.cluster_a == e.cluster_b) {
        skip(e);
        return;
      }
      for_each_direction(e, [this](std::uint64_t key) {
        ++pairs_[key].down_depth;
        refresh_pair(key);
      });
      lift_after(i);
      break;
    }
    case FaultKind::kLinkDegrade: {
      if (hooks_.fabric == nullptr || e.cluster_a == e.cluster_b) {
        skip(e);
        return;
      }
      for_each_direction(e, [this, &e](std::uint64_t key) {
        pairs_[key].degrades.emplace_back(e.loss, e.latency_factor);
        refresh_pair(key);
      });
      lift_after(i);
      break;
    }
    case FaultKind::kPartition: {
      if (hooks_.fabric == nullptr || e.group_a.empty() ||
          e.group_b.empty()) {
        skip(e);
        return;
      }
      // Sever every cross-group edge in both directions; links within a
      // side are untouched. Nests with plain link faults on the same pair.
      for (const std::uint32_t a : e.group_a) {
        for (const std::uint32_t b : e.group_b) {
          for (const std::uint64_t key :
               {directed_key(a, b), directed_key(b, a)}) {
            ++pairs_[key].down_depth;
            refresh_pair(key);
          }
        }
      }
      lift_after(i);
      break;
    }
    case FaultKind::kCoordinatorCrash: {
      if (!hooks_.coordinator_crash) {
        skip(e);
        return;
      }
      hooks_.coordinator_crash(e.down_for);
      break;  // the coordinator scheduling its own reboot is the "lift"
    }
    case FaultKind::kDiskSlow: {
      if (hooks_.store == nullptr || e.factor < 1.0) {
        skip(e);
        return;
      }
      ++disk_factors_[e.factor];
      refresh_disk();
      lift_after(i);
      break;
    }
    case FaultKind::kClockStep: {
      if (hooks_.time == nullptr || e.node >= hooks_.time->size()) {
        skip(e);
        return;
      }
      hooks_.time->clock(e.node).apply_correction(e.clock_step);
      break;
    }
    case FaultKind::kStoreCorrupt: {
      storage::SharedStore* st = target_store(e.store);
      if (st == nullptr) {
        skip(e);
        return;
      }
      const storage::ObjectId target = st->nth_newest_object(e.nth_newest);
      if (target == storage::kInvalidObject ||
          !st->corrupt_object(target)) {
        skip(e);  // store empty, or the victim is already torn
        return;
      }
      break;  // permanent: bit rot never lifts itself
    }
    case FaultKind::kStoreTear: {
      storage::SharedStore* st = target_store(e.store);
      if (st == nullptr || st->tear_inflight_writes() == 0) {
        skip(e);  // nothing mid-write to tear — the store was idle
        return;
      }
      break;  // permanent: the partial objects stay until GC'd
    }
  }
  telemetry::count(metrics_, "fault.injected");
  telemetry::count(metrics_, injected_c_[e.kind]);
  telemetry::instant(metrics_, sim_->now(), kTrack, to_string(e.kind));
}

void FaultInjector::lift(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::kNodeCrash:
      if (hooks_.fabric != nullptr && e.node < hooks_.fabric->node_count() &&
          hooks_.fabric->node(e.node).failed()) {
        hooks_.fabric->repair_node(e.node);
      }
      break;
    case FaultKind::kLinkDown: {
      for_each_direction(e, [this](std::uint64_t key) {
        auto it = pairs_.find(key);
        if (it != pairs_.end() && it->second.down_depth > 0) {
          --it->second.down_depth;
          refresh_pair(key);
        }
      });
      break;
    }
    case FaultKind::kLinkDegrade: {
      for_each_direction(e, [this, &e](std::uint64_t key) {
        auto it = pairs_.find(key);
        if (it != pairs_.end()) {
          auto& ds = it->second.degrades;
          for (auto d = ds.begin(); d != ds.end(); ++d) {
            if (d->first == e.loss && d->second == e.latency_factor) {
              ds.erase(d);
              break;
            }
          }
          refresh_pair(key);
        }
      });
      break;
    }
    case FaultKind::kPartition: {
      for (const std::uint32_t a : e.group_a) {
        for (const std::uint32_t b : e.group_b) {
          for (const std::uint64_t key :
               {directed_key(a, b), directed_key(b, a)}) {
            auto it = pairs_.find(key);
            if (it != pairs_.end() && it->second.down_depth > 0) {
              --it->second.down_depth;
              refresh_pair(key);
            }
          }
        }
      }
      break;
    }
    case FaultKind::kDiskSlow: {
      auto it = disk_factors_.find(e.factor);
      if (it != disk_factors_.end() && --it->second == 0) {
        disk_factors_.erase(it);
      }
      refresh_disk();
      break;
    }
    case FaultKind::kClockStep:
    case FaultKind::kStoreCorrupt:
    case FaultKind::kStoreTear:
    case FaultKind::kCoordinatorCrash:
      return;  // instantaneous, permanent, or self-lifting: nothing here
  }
  telemetry::count(metrics_, "fault.lifted");
  telemetry::count(metrics_, lifted_c_[e.kind]);
  telemetry::instant(metrics_, sim_->now(), kTrack,
                     std::string(to_string(e.kind)) + "_lifted");
}

void FaultInjector::refresh_pair(std::uint64_t key) {
  auto it = pairs_.find(key);
  if (it == pairs_.end()) return;
  const auto from = static_cast<std::uint32_t>(key >> 32);
  const auto to = static_cast<std::uint32_t>(key & 0xffffffffu);
  net::ClusterLinkModel& links = hooks_.fabric->links();
  const PairState& st = it->second;
  if (st.down_depth > 0) {
    links.set_directed_override(from, to, net::ClusterLinkModel::PairOverride{
                                              /*cut=*/true, 0.0, 1.0});
  } else if (!st.degrades.empty()) {
    const auto& [loss, lat] = st.degrades.back();
    links.set_directed_override(
        from, to, net::ClusterLinkModel::PairOverride{false, loss, lat});
  } else {
    links.clear_directed_override(from, to);
    pairs_.erase(it);
  }
}

storage::SharedStore* FaultInjector::target_store(std::uint32_t i) const {
  if (i == 0) return hooks_.store;
  if (i - 1 < hooks_.replicas.size()) return hooks_.replicas[i - 1];
  return nullptr;
}

void FaultInjector::refresh_disk() {
  if (hooks_.store == nullptr) return;
  // Concurrent slowdowns do not stack multiplicatively; the store runs at
  // the worst (largest) active factor, like a degraded RAID rebuilding.
  const double factor =
      disk_factors_.empty() ? 1.0 : disk_factors_.rbegin()->first;
  hooks_.store->write_pool().set_capacity(disk_write_base_ / factor);
  hooks_.store->read_pool().set_capacity(disk_read_base_ / factor);
}

}  // namespace dvc::fault
