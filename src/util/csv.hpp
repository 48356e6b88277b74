// Minimal CSV writer behind every CSV file the project writes.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace cgs {

class CsvWriter {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);

  void header(std::initializer_list<std::string_view> cols);
  /// Dynamic-width variant (per-flow column groups).
  void header(const std::vector<std::string>& cols);
  void row(const std::vector<double>& values);
  void row(const std::vector<std::string>& cells);

  /// Flushes and closes the file; throws std::runtime_error naming the
  /// path when any write to it failed (a full disk, a file-size cap), so a
  /// short file is never reported as written.  Without it the destructor
  /// closes silently.  Call it once.
  void close();

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
};

/// Escape a cell per RFC 4180 (quotes doubled, wrap when needed).
std::string csv_escape(std::string_view cell);

}  // namespace cgs
