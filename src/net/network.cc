#include "net/network.h"

namespace nbcp {

SimTime Network::SampleDelay() {
  SimTime d = delay_.base_delay;
  if (delay_.jitter > 0) d += clock()->rng().Uniform(0, delay_.jitter);
  return d;
}

Status Network::Send(Message msg) {
  Status accepted = Accept(msg);
  if (!accepted.ok()) return accepted;
  EventLabel label;
  label.cls = EventClass::kDelivery;
  label.site = msg.to;
  label.from = msg.from;
  label.txn = msg.txn;
  label.msg_type = msg.type;
  label.seq = msg.seq;
  clock()->ScheduleLabeled(SampleDelay(), std::move(label),
                           [this, msg = std::move(msg)] { Deliver(msg); });
  return Status::OK();
}

}  // namespace nbcp
