#include "core/audit.hpp"

#include <sstream>

namespace cgs::core {

void SimAuditor::attach(net::Link& link) {
  link_ = &link;
  link.add_observer(this);
}

void SimAuditor::fail(const std::string& msg, Time t,
                      net::FlowId flow) const {
  std::ostringstream os;
  os << "[" << to_string(ErrorClass::kInvariant) << "]";
  if (!opts_.cell_label.empty()) os << " cell '" << opts_.cell_label << "'";
  if (opts_.seed != 0) os << " seed " << opts_.seed;
  if (t != kTimeInfinite) os << " t=" << to_seconds(t) << "s";
  if (flow != 0) os << " flow " << flow;
  os << ": " << msg;
  throw InvariantViolation(os.str());
}

void SimAuditor::check_occupancy(Time t, net::FlowId flow) {
  ++checks_;
  const ByteSize occ = link_->queue().byte_length();
  if (occ < ByteSize(0)) {
    std::ostringstream os;
    os << "queue occupancy negative (" << occ.bytes() << " bytes)";
    fail(os.str(), t, flow);
  }
  if (opts_.queue_capacity > ByteSize(0) && occ > opts_.queue_capacity) {
    std::ostringstream os;
    os << "queue occupancy " << occ.bytes() << " bytes exceeds capacity "
       << opts_.queue_capacity.bytes() << " bytes";
    fail(os.str(), t, flow);
  }
}

void SimAuditor::check_flow(const FlowState& st, net::FlowId flow, Time t) {
  ++checks_;
  if (st.dropped + st.transmitted > st.arrived) {
    std::ostringstream os;
    os << "flow accounting: dropped (" << st.dropped.bytes()
       << ") + transmitted (" << st.transmitted.bytes()
       << ") exceeds arrived (" << st.arrived.bytes() << ") bytes";
    fail(os.str(), t, flow);
  }
}

void SimAuditor::on_arrival(const net::Packet& p, Time t) {
  ++checks_;
  if (p.size_bytes <= 0) {
    std::ostringstream os;
    os << "packet uid " << p.uid << " has non-positive wire size "
       << p.size_bytes;
    fail(os.str(), t, p.flow);
  }
  arrived_ += p.size();
  flows_[p.flow].arrived += p.size();
}

void SimAuditor::on_drop(const net::Packet& p, net::DropReason, Time t) {
  dropped_ += p.size();
  FlowState& st = flows_[p.flow];
  st.dropped += p.size();
  check_flow(st, p.flow, t);
  check_occupancy(t, p.flow);
}

void SimAuditor::on_transmit(const net::Packet& p, Time t) {
  transmitted_ += p.size();
  ++transmitted_pkts_;
  FlowState& st = flows_[p.flow];
  st.transmitted += p.size();
  check_flow(st, p.flow, t);

  // Conservation at the transmitter: the packet just left the queue, so
  // everything that arrived and was neither dropped nor transmitted must
  // be the queue's current occupancy, to the byte.
  ++checks_;
  const ByteSize residual = arrived_ - dropped_ - transmitted_;
  if (residual != link_->queue().byte_length()) {
    std::ostringstream os;
    os << "byte conservation: arrived " << arrived_.bytes() << " - dropped "
       << dropped_.bytes() << " - transmitted " << transmitted_.bytes()
       << " = " << residual.bytes() << " bytes, but queue holds "
       << link_->queue().byte_length().bytes();
    fail(os.str(), t, p.flow);
  }
  check_occupancy(t, p.flow);

  if (opts_.check_sequences) {
    if (const auto* rtp = std::get_if<net::RtpHeader>(&p.header)) {
      ++checks_;
      if (st.saw_rtp && rtp->seq <= st.last_rtp_seq) {
        std::ostringstream os;
        os << "RTP sequence not increasing at bottleneck: seq " << rtp->seq
           << " after " << st.last_rtp_seq;
        fail(os.str(), t, p.flow);
      }
      st.saw_rtp = true;
      st.last_rtp_seq = rtp->seq;
    }
  }
}

void SimAuditor::final_check() const {
  if (link_ == nullptr) return;
  ++checks_;
  const ByteSize residual = arrived_ - dropped_ - transmitted_;
  if (residual != link_->queue().byte_length()) {
    std::ostringstream os;
    os << "end-of-run byte conservation: residual " << residual.bytes()
       << " bytes vs queue occupancy "
       << link_->queue().byte_length().bytes();
    fail(os.str(), kTimeInfinite, 0);
  }
  ++checks_;
  if (link_->packets_delivered() > transmitted_pkts_) {
    std::ostringstream os;
    os << "link delivered " << link_->packets_delivered()
       << " packets but only " << transmitted_pkts_
       << " were seen at the transmitter";
    fail(os.str(), kTimeInfinite, 0);
  }
}

}  // namespace cgs::core
