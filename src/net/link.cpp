#include "net/link.hpp"

#include <cassert>
#include <utility>

namespace cgs::net {

Link::Link(sim::Simulator& sim, std::string name, Bandwidth rate,
           Time prop_delay, std::unique_ptr<Queue> queue, PacketSink* dst)
    : sim_(sim),
      name_(std::move(name)),
      rate_(rate),
      prop_delay_(prop_delay),
      queue_(std::move(queue)),
      dst_(dst) {
  assert(dst_ != nullptr);
  assert(!rate_.is_zero() && "Link requires finite capacity; use DelayLine");
}

void Link::add_observer(PacketObserver* observer) {
  assert(observer != nullptr);
  observers_.push_back(observer);
  queue_->set_observer(&drop_fanout_);
}

void Link::DropFanout::on_drop(const Packet& p, DropReason r, Time t) {
  for (PacketObserver* o : link->observers_) o->on_drop(p, r, t);
}

void Link::handle_packet(PacketPtr pkt) {
  const Time now = sim_.now();
  arrived_bytes_ += pkt->size();
  for (PacketObserver* o : observers_) o->on_arrival(*pkt, now);
  queue_->enqueue(std::move(pkt), now);
  if (!busy_) try_transmit();
}

void Link::try_transmit() {
  assert(!busy_);
  PacketPtr pkt = queue_->dequeue(sim_.now());
  if (!pkt) return;

  busy_ = true;
  for (PacketObserver* o : observers_) o->on_transmit(*pkt, sim_.now());
  // Zero fluid load takes the exact legacy expression so fleet-free runs
  // stay bit-identical (golden trace hashes).
  const Time ser = fluid_load_.is_zero() ? rate_.transmit_time(pkt->size())
                                         : packet_rate().transmit_time(pkt->size());

  // Serialisation completes after `ser`; the packet then propagates for
  // prop_delay_ without occupying the transmitter.  Both stages are typed
  // packet events carrying the in-flight packet — the per-packet hot path
  // constructs no closures at all.
  sim_.push_packet_in(ser, &ser_done_, std::move(pkt));
}

void Link::SerDone::handle_packet(PacketPtr pkt) {
  Link& l = *link;
  l.busy_ = false;
  ++l.delivered_pkts_;
  l.delivered_bytes_ += pkt->size();
  l.sim_.push_packet_in(l.prop_delay_, &l.delivery_end_, std::move(pkt));
  l.try_transmit();
}

void Link::DeliveryEnd::handle_packet(PacketPtr pkt) {
  const Time now = link->sim_.now();
  link->deliveries_.add(pkt->size_bytes, now);
  for (PacketObserver* o : link->observers_) o->on_deliver(*pkt, now);
  link->dst_->handle_packet(std::move(pkt));
}

void DelayLine::handle_packet(PacketPtr pkt) {
  sim_.push_packet_in(delay_, dst_, std::move(pkt));
}

}  // namespace cgs::net
