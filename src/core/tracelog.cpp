#include "core/tracelog.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/csv.hpp"

namespace cgs::core {

std::string_view to_string(TraceEvent e) {
  switch (e) {
    case TraceEvent::kArrival: return "arrival";
    case TraceEvent::kDrop: return "drop";
    case TraceEvent::kTransmit: return "transmit";
    case TraceEvent::kDeliver: return "deliver";
  }
  return "?";
}

void TraceLog::record(TraceEvent e, const net::Packet& p, Time t) {
  if ((events_ & (1u << unsigned(e))) == 0) return;
  records_.push_back(
      TraceRecord{t, e, p.flow, p.klass, p.size_bytes, p.uid});
}

void TraceLog::write_csv(const std::string& path) const {
  CsvWriter csv(path);
  csv.header({"t_s", "event", "flow", "class", "size_bytes", "uid"});
  for (const auto& r : records_) {
    csv.row({std::to_string(to_seconds(r.at)),
             std::string(to_string(r.event)), std::to_string(r.flow),
             std::string(net::to_string(r.klass)),
             std::to_string(r.size_bytes), std::to_string(r.uid)});
  }
  csv.close();
}

Bandwidth FlowSummary::goodput() const {
  if (last_delivery <= first_delivery) return Bandwidth::zero();
  return rate_of(ByteSize(bytes_delivered), last_delivery - first_delivery);
}

double FlowSummary::drop_rate() const {
  const auto total = packets_delivered + packets_dropped;
  return total == 0 ? 0.0 : double(packets_dropped) / double(total);
}

std::vector<FlowSummary> TraceLog::summarize(Time from, Time to) const {
  std::map<net::FlowId, FlowSummary> flows;
  std::map<net::FlowId, std::vector<Time>> deliveries;
  for (const auto& r : records_) {
    if (r.at < from || r.at >= to) continue;
    FlowSummary& s = flows[r.flow];
    s.flow = r.flow;
    if (r.event == TraceEvent::kDeliver) {
      ++s.packets_delivered;
      s.bytes_delivered += r.size_bytes;
      s.first_delivery = std::min(s.first_delivery, r.at);
      s.last_delivery = std::max(s.last_delivery, r.at);
      deliveries[r.flow].push_back(r.at);
    } else if (r.event == TraceEvent::kDrop) {
      ++s.packets_dropped;
    }
  }

  // Inter-arrival jitter: mean absolute deviation from the mean gap.
  for (auto& [flow, times] : deliveries) {
    if (times.size() < 3) continue;
    std::sort(times.begin(), times.end());
    double mean_gap = 0;
    for (std::size_t i = 1; i < times.size(); ++i) {
      mean_gap += to_seconds(times[i] - times[i - 1]);
    }
    mean_gap /= double(times.size() - 1);
    double mad = 0;
    for (std::size_t i = 1; i < times.size(); ++i) {
      mad += std::abs(to_seconds(times[i] - times[i - 1]) - mean_gap);
    }
    mad /= double(times.size() - 1);
    flows[flow].jitter = from_seconds(mad);
  }

  std::vector<FlowSummary> out;
  out.reserve(flows.size());
  for (auto& [id, s] : flows) out.push_back(s);
  return out;
}

}  // namespace cgs::core
