#include "net/packet.hpp"

namespace cgs::net {

std::string_view to_string(TrafficClass c) {
  switch (c) {
    case TrafficClass::kGameStream: return "game";
    case TrafficClass::kStreamInput: return "input";
    case TrafficClass::kTcpData: return "tcp";
    case TrafficClass::kTcpAck: return "ack";
    case TrafficClass::kPing: return "ping";
  }
  return "?";
}

Packet* PacketPool::carve() {
  if (chunk_fill_ == kChunkSize) {
    if (arena_ != nullptr) {
      // Start the packets' lifetimes in arena storage; value-initialise so
      // a fresh chunk matches what `new Packet[...]` produces.
      Packet* chunk = arena_->allocate_array<Packet>(kChunkSize);
      for (std::size_t i = 0; i < kChunkSize; ++i) ::new (chunk + i) Packet();
      chunks_.push_back(chunk);
    } else {
      chunks_.push_back(new Packet[kChunkSize]());
    }
    chunk_fill_ = 0;
  }
  storage_count_++;
  return &chunks_.back()[chunk_fill_++];
}

}  // namespace cgs::net
