// T5 — "a measure of the efficiency of DVC checkpoints vs. application
// specific checkpoints for common applications" (§1) across the paper's
// §2 taxonomy: application-, user-, kernel- and VM-level checkpointing.
// Application-level saves the least data but needs programmer support;
// DVC's VM-level saves the whole guest but is the only fully transparent
// method that can cut a parallel job.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ckpt/methods.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

constexpr double kStoreBps = 100e6;  // the shared NFS-class store

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("T5: checkpoint method efficiency (26 ranks, 1 GiB guests,"
              " 100 MB/s store)\n");

  vm::GuestConfig guest;
  guest.ram_bytes = 1ull << 30;

  struct Case {
    std::string name;
    app::WorkloadSpec workload;
  };
  std::vector<Case> cases;
  cases.push_back({"hpl n=32768 p=26", app::make_hpl(32768, 26)});
  cases.push_back({"ptrans n=32768 p=26", app::make_ptrans(32768, 26)});
  cases.push_back({"sequential", app::make_sequential(1e13)});

  TextTable table({"workload", "method", "bytes/rank", "total", "write (s)",
                   "transparent", "relink", "app code", "parallel",
                   "applicable"});
  for (const Case& c : cases) {
    for (const ckpt::MethodKind kind : ckpt::kAllMethods) {
      const ckpt::MethodProfile prof = ckpt::profile(kind);
      const ckpt::Footprint fp = ckpt::footprint(kind, c.workload, guest);
      const double total = static_cast<double>(fp.bytes) * c.workload.ranks;
      const double write_s =
          fp.applicable ? total / kStoreBps : 0.0;  // contended aggregate
      table.add_row(
          {c.name, std::string(prof.name),
           fp.applicable ? fmt_bytes(static_cast<double>(fp.bytes)) : "--",
           fp.applicable ? fmt_bytes(total) : "--",
           fp.applicable ? fmt(write_s, 1) : "--",
           prof.transparent_to_app ? "yes" : "no",
           prof.requires_relink ? "yes" : "no",
           prof.requires_app_code ? "yes" : "no",
           prof.handles_parallel ? "yes" : "no",
           fp.applicable ? "yes" : "NO"});
    }
  }
  table.print("T5  method footprint and restrictions (model)");

  // Cross-check the VM-level model against an actual simulated save of a
  // 26-VM cluster running HPL, and read the per-method sizes out of the
  // live guest's process table (the §2 accounting, measured).
  {
    tools::CellSpec spec = vc_cell(paper_substrate(32, 77), guest.ram_bytes,
                                   steady_hpl(26, 100000, 0.5));
    spec.lsc_seed = 77;
    tools::CellRig rig(spec);
    core::MachineRoom& room = rig.room;
    std::optional<ckpt::LscResult> result;
    room.sim.schedule_after(2 * sim::kSecond, [&] {
      room.dvc->checkpoint_vc(*rig.vc, *rig.lsc,
                              [&](ckpt::LscResult r) { result = r; });
    });
    while (!result) room.sim.run_until(room.sim.now() + sim::kSecond);
    const double measured = sim::to_seconds(result->total_time);
    const double modelled =
        26.0 * static_cast<double>(guest.ram_bytes) / kStoreBps;
    std::printf("\nmeasured whole-cluster VM-level save: %.1f s "
                "(model: %.1f s)\n", measured, modelled);

    // Per-rank checkpoint content measured from the guest process table.
    const vm::GuestOs& os = rig.vc->machine(0).os();
    const vm::Pid pid = rig.application->rank(0).guest_pid();
    std::printf("\nrank 0 checkpoint content, measured in-guest:\n");
    TextTable measured_table({"method", "bytes/rank (measured)"});
    for (const ckpt::MethodKind kind : ckpt::kAllMethods) {
      const ckpt::Footprint fp = ckpt::measured_footprint(
          kind, rig.application->spec(), rig.vc->spec().guest, os, pid);
      measured_table.add_row(
          {std::string(ckpt::profile(kind).name),
           fmt_bytes(static_cast<double>(fp.bytes))});
    }
    measured_table.print("T5b  live guest-OS accounting (rank 0)");
    tools::check_trial(*rig.inv, "tab5_ckpt_efficiency", "measured save");
  }

  return 0;
}
