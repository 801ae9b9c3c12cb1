#include "net/network.h"

#include <utility>

namespace nbcp {

SimTime Network::SampleDelay() {
  SimTime d = delay_.base_delay;
  if (delay_.jitter > 0) d += sim_->rng().Uniform(0, delay_.jitter);
  return d;
}

Status Network::Send(Message msg) {
  Status accepted = Accept(msg);
  if (!accepted.ok()) return accepted;
  sim_->ScheduleDelivery(SampleDelay(), &Network::DeliverEvent, this,
                         std::move(msg));
  return Status::OK();
}

}  // namespace nbcp
