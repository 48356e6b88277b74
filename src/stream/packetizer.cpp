#include "stream/packetizer.hpp"

namespace cgs::stream {

std::size_t Packetizer::packetize(const Frame& frame, Time now,
                                  util::RingBuffer<net::PacketPtr>& out) {
  const std::int64_t payload = net::kRtpPayload;
  const auto n_pkts =
      std::uint16_t((frame.bytes.bytes() + payload - 1) / payload);

  std::int64_t remaining = frame.bytes.bytes();
  for (std::uint16_t i = 0; i < n_pkts; ++i) {
    const std::int64_t chunk = std::min(remaining, payload);
    remaining -= chunk;

    net::RtpHeader h;
    h.seq = next_seq_++;
    h.frame_id = frame.id;
    h.pkt_index = i;
    h.pkts_in_frame = n_pkts;
    h.keyframe = frame.keyframe;
    h.frame_gen_time = frame.gen_time;

    out.push_back(factory_->make(
        flow_, net::TrafficClass::kGameStream,
        std::int32_t(chunk) + net::kIpUdpOverhead, now, h));
  }
  return n_pkts;
}

}  // namespace cgs::stream
