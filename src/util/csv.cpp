#include "util/csv.hpp"

#include <sstream>
#include <stdexcept>

namespace cgs {

std::string csv_escape(std::string_view cell) {
  const bool needs_quote =
      cell.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) return std::string(cell);
  std::string out;
  out.reserve(cell.size() + 2);
  out.push_back('"');
  for (char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

namespace {

template <typename Range>
void write_cells(std::ofstream& out, const Range& cols) {
  bool first = true;
  for (const auto& c : cols) {
    if (!first) out << ',';
    out << csv_escape(c);
    first = false;
  }
  out << '\n';
}

}  // namespace

void CsvWriter::header(std::initializer_list<std::string_view> cols) {
  write_cells(out_, cols);
}

void CsvWriter::header(const std::vector<std::string>& cols) {
  write_cells(out_, cols);
}

void CsvWriter::row(const std::vector<double>& values) {
  std::ostringstream line;
  line.precision(10);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) line << ',';
    line << values[i];
  }
  out_ << line.str() << '\n';
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  write_cells(out_, cells);
}

void CsvWriter::close() {
  out_.close();
  if (!out_) throw std::runtime_error("CsvWriter: cannot write " + path_);
}

}  // namespace cgs
