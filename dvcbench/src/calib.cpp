#include "calib.hpp"

#include <time.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "stats.hpp"

namespace dvcbench {

namespace {

constexpr std::size_t kPending = 512;
constexpr std::size_t kSteps = 2048;
constexpr std::uint64_t kKeys = 1024;

[[nodiscard]] std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Event {
  std::uint64_t at;
  std::uint64_t id;
  std::function<std::uint64_t(std::uint64_t)> fn;
};

struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.at != b.at ? a.at > b.at : a.id > b.id;
  }
};

}  // namespace

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t reference_task() {
  std::uint64_t rng = 0x5EED;
  std::uint64_t sum = 0;
  std::vector<Event> heap;
  heap.reserve(kPending + 1);
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> state;
  std::uint64_t next_id = 0;
  const auto schedule = [&](std::uint64_t now) {
    const std::uint64_t r = splitmix(rng);
    const std::uint64_t key = r % kKeys;
    heap.push_back(Event{now + 1 + (r >> 40) % 1000, next_id++,
                         [key, &state](std::uint64_t t) {
                           std::vector<std::uint64_t>& v = state[key];
                           if (v.size() >= 8) v.clear();
                           v.push_back(t);
                           return v.size() + t;
                         }});
    std::push_heap(heap.begin(), heap.end(), Later{});
  };
  for (std::size_t i = 0; i < kPending; ++i) schedule(0);
  for (std::size_t i = 0; i < kSteps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), Later{});
    Event e = std::move(heap.back());
    heap.pop_back();
    sum = sum * 31 + e.fn(e.at);
    schedule(e.at);
  }
  return sum;
}

double reference_scale(std::vector<double> task_cpu_s) {
  if (task_cpu_s.empty()) {
    throw std::logic_error("no reference task was timed");
  }
  const double task = median(std::move(task_cpu_s));
  if (!(task > 0.0)) throw std::runtime_error("reference task took no time");
  return kReferenceTaskS / task;
}

std::vector<double> reference_scales(const std::vector<double>& task_cpu_s) {
  const std::size_t n = task_cpu_s.size();
  const std::size_t width = std::min(kReferenceWindow, n);
  std::vector<double> scales;
  scales.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Centred on i, shifted inwards at the ends of the series.
    const std::size_t from =
        std::min(i - std::min(i, width / 2), n - width);
    scales.push_back(reference_scale(
        {task_cpu_s.begin() + static_cast<std::ptrdiff_t>(from),
         task_cpu_s.begin() + static_cast<std::ptrdiff_t>(from + width)}));
  }
  return scales;
}

}  // namespace dvcbench
