#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace dvc::bench {

/// A fixed-width text table for paper-style experiment output.
class TextTable final {
 public:
  explicit TextTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print(const std::string& title) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    std::printf("\n=== %s ===\n", title.c_str());
    print_row(headers_, widths);
    std::size_t total = widths.size() ? widths.size() * 3 - 1 : 0;
    for (const auto w : widths) total += w;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row, widths);
    std::fflush(stdout);
  }

 private:
  static void print_row(const std::vector<std::string>& cells,
                        const std::vector<std::size_t>& widths) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      std::printf("%-*s%s", static_cast<int>(widths[c]), cell.c_str(),
                  c + 1 == widths.size() ? "\n" : " | ");
    }
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

[[nodiscard]] inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

[[nodiscard]] inline std::string fmt_pct(double fraction, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

[[nodiscard]] inline std::string fmt_bytes(double bytes) {
  char buf[64];
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB",
                  bytes / static_cast<double>(1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  bytes / static_cast<double>(1ull << 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

/// The programs take no arguments: each prints one fixed table. Exits 2
/// naming the first argument, so a stray flag is reported instead of being
/// silently ignored.
inline void reject_arguments(int argc, char** argv) {
  if (argc < 2) return;
  std::fprintf(stderr, "%s: unrecognized argument '%s'\n", argv[0], argv[1]);
  std::exit(2);
}

}  // namespace dvc::bench
