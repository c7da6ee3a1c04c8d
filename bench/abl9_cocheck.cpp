// A9 — the paper's §2.1 baseline, head to head: CoCheck/BLCR-style
// user-level checkpointing (the application is re-linked against a
// checkpoint library that parks ranks and drains the network) versus DVC's
// LSC (freeze whole guests, let TCP heal the cut).
//
// The library writes far less data (process images, not guest images) and
// never freezes the guests — but it only works for applications that can
// be re-linked, and it holds the application for quiesce + write. DVC
// works on anything that boots.

#include <cstdio>
#include <optional>
#include <string>

#include "bench_util.hpp"
#include "ckpt/cocheck.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

constexpr const char* kProgram = "abl9_cocheck";
constexpr std::uint32_t kRanks = 16;

struct Outcome {
  double coord_s = 0.0;     ///< quiesce time / pause skew
  double app_held_s = 0.0;  ///< time the application made no progress
  double data_gib = 0.0;
  bool transparent = false;
};

tools::CellSpec make_spec(std::uint64_t guest_ram, double iter_s) {
  tools::CellSpec spec = vc_cell(paper_substrate(kRanks + 2, 4711), guest_ram,
                                 steady_ptrans(kRanks, 100000, iter_s));
  spec.lsc_seed = 4711;
  return spec;
}

Outcome run_lsc(std::uint64_t guest_ram, double iter_s) {
  tools::CellRig rig(make_spec(guest_ram, iter_s));
  core::MachineRoom& room = rig.room;
  std::optional<ckpt::LscResult> result;
  const sim::Duration frozen0 = rig.vc->machine(0).total_frozen();
  room.sim.schedule_after(5 * sim::kSecond, [&] {
    room.dvc->checkpoint_vc(*rig.vc, *rig.lsc,
                            [&](ckpt::LscResult r) { result = r; });
  });
  while (!result) room.sim.run_until(room.sim.now() + sim::kSecond);
  Outcome o;
  o.coord_s = sim::to_seconds(result->pause_skew);
  o.app_held_s =
      sim::to_seconds(rig.vc->machine(0).total_frozen() - frozen0);
  o.data_gib = static_cast<double>(guest_ram) * kRanks /
               static_cast<double>(1ull << 30);
  o.transparent = true;
  tools::check_trial(*rig.inv, kProgram,
                     "LSC, " + fmt_bytes(static_cast<double>(guest_ram)) +
                         ", " + fmt(iter_s, 1) + " s");
  return o;
}

Outcome run_cocheck(std::uint64_t guest_ram, double iter_s) {
  tools::CellRig rig(make_spec(guest_ram, iter_s));
  core::MachineRoom& room = rig.room;
  ckpt::CocheckCoordinator cocheck(room.sim);
  std::optional<ckpt::CocheckCoordinator::Result> result;
  vm::GuestConfig guest;
  guest.ram_bytes = guest_ram;
  room.sim.schedule_after(5 * sim::kSecond, [&] {
    cocheck.checkpoint(*rig.application, guest, room.images,
                       [&](ckpt::CocheckCoordinator::Result r) {
                         result = r;
                       });
  });
  while (!result) room.sim.run_until(room.sim.now() + sim::kSecond);
  tools::check_trial(*rig.inv, kProgram,
                     "CoCheck, " + fmt_bytes(static_cast<double>(guest_ram)) +
                         ", " + fmt(iter_s, 1) + " s");
  Outcome o;
  o.coord_s = sim::to_seconds(result->quiesce_time);
  o.app_held_s = sim::to_seconds(result->total_time);
  o.data_gib = static_cast<double>(result->bytes_written) /
               static_cast<double>(1ull << 30);
  o.transparent = false;  // the application had to be re-linked
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("A9: DVC LSC vs. CoCheck/BLCR-style user-level checkpointing\n");
  std::printf("    (16-rank PTRANS; store 100 MB/s)\n");

  TextTable table({"method", "guest RAM", "iter time", "coordination (s)",
                   "app held (s)", "data (GiB)", "transparent"});
  struct Case {
    std::uint64_t ram;
    double iter_s;
    const char* label;
  };
  const Case cases[] = {
      {512ull << 20, 0.1, "0.1 s"},
      {1ull << 30, 0.1, "0.1 s"},
      {1ull << 30, 2.0, "2 s"},  // long iterations: quiesce gets expensive
  };
  for (const Case& c : cases) {
    const Outcome lsc = run_lsc(c.ram, c.iter_s);
    const Outcome cc = run_cocheck(c.ram, c.iter_s);
    const std::string ram = fmt_bytes(static_cast<double>(c.ram));
    table.add_row({"DVC (vm-level LSC)", ram, c.label, fmt(lsc.coord_s, 3),
                   fmt(lsc.app_held_s, 1), fmt(lsc.data_gib, 1), "yes"});
    table.add_row({"CoCheck (user-level)", ram, c.label, fmt(cc.coord_s, 3),
                   fmt(cc.app_held_s, 1), fmt(cc.data_gib, 1),
                   "NO (re-link)"});
  }
  table.print("A9  whole-guest vs. process checkpointing");
  std::printf("the user-level library writes ~6x less and skips the guest\n"
              "freeze, but its coordination costs application iterations\n"
              "and it only exists for re-linked applications — the paper's\n"
              "argument for VM-level transparency in one table.\n");

  return 0;
}
