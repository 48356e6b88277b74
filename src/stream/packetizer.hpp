// Splits encoded frames into RTP-style packets.
#pragma once

#include <cstddef>

#include "net/packet.hpp"
#include "stream/frame.hpp"
#include "util/ring_buffer.hpp"

namespace cgs::stream {

class Packetizer {
 public:
  Packetizer(net::PacketFactory& factory, net::FlowId flow)
      : factory_(&factory), flow_(flow) {}

  /// Split `frame` into <= kRtpPayload-sized packets stamped at `now`,
  /// appended to `out` in sequence order (a warm ring takes them without
  /// allocating).  Returns how many were appended.
  std::size_t packetize(const Frame& frame, Time now,
                        util::RingBuffer<net::PacketPtr>& out);

 private:
  net::PacketFactory* factory_;
  net::FlowId flow_;
  std::uint32_t next_seq_ = 0;
};

}  // namespace cgs::stream
