#include "election/bully.h"

#include "common/logging.h"
#include "obs/metrics_registry.h"

namespace nbcp {
namespace {
const char kElection[] = "bully:election";
const char kAnswer[] = "bully:answer";
const char kLeader[] = "bully:leader";
}  // namespace

BullyElection::BullyElection(SiteId self, Clock* clock, Transport* network,
                             AliveFn alive_sites, ElectedCallback on_elected,
                             ElectionConfig config)
    : self_(self),
      clock_(clock),
      network_(network),
      alive_(std::move(alive_sites)),
      on_elected_(std::move(on_elected)),
      config_(config) {}

bool BullyElection::OwnsMessage(const std::string& type) {
  return type.rfind("bully:", 0) == 0;
}

void BullyElection::Send(SiteId to, const std::string& type,
                         TransactionId tag, std::string payload) {
  Message m;
  m.type = type;
  m.from = self_;
  m.to = to;
  m.txn = tag;
  m.payload = std::move(payload);
  (void)network_->Send(std::move(m));
}

void BullyElection::StartElection(TransactionId tag) {
  Round& round = rounds_[tag];
  if (round.running || round.done) return;
  round.running = true;
  round.answered = false;
  if (metrics_ != nullptr) metrics_->counter("election/started").Inc();

  bool challenged_anyone = false;
  for (SiteId site : alive_()) {
    if (site > self_) {
      Send(site, kElection, tag);
      challenged_anyone = true;
    }
  }
  if (!challenged_anyone) {
    // Highest operational id: win immediately.
    DeclareSelf(tag);
    return;
  }
  round.declare_timer = clock_->ScheduleTimer(
      config_.response_timeout, self_,
      [this, tag, token = std::weak_ptr<char>(alive_token_)]() {
        if (token.expired()) return;
        Round& r = rounds_[tag];
        if (r.done || r.answered) return;
        DeclareSelf(tag);
      });
}

void BullyElection::DeclareSelf(TransactionId tag) {
  Round& round = rounds_[tag];
  if (round.done) return;
  for (SiteId site : alive_()) {
    if (site != self_) Send(site, kLeader, tag, std::to_string(self_));
  }
  FinishRound(tag, self_);
}

void BullyElection::FinishRound(TransactionId tag, SiteId leader) {
  Round& round = rounds_[tag];
  if (round.done) return;
  if (round.declare_timer != 0) clock_->Cancel(round.declare_timer);
  if (round.takeover_timer != 0) clock_->Cancel(round.takeover_timer);
  round.done = true;
  round.running = false;
  round.leader = leader;
  if (metrics_ != nullptr) metrics_->counter("election/won").Inc();
  NBCP_LOG_AT(kDebug, self_) << "bully round " << tag << " elected "
                             << leader;
  if (on_elected_) on_elected_(tag, leader);
}

void BullyElection::OnMessage(const Message& message) {
  TransactionId tag = message.txn;
  if (message.type == kElection) {
    Round& round = rounds_[tag];
    if (round.done) {
      // We already know this round's winner (e.g. the challenger was on
      // the other side of a healed partition, or reset its round): tell it
      // directly instead of answering — an answer would leave it waiting
      // for a leader announcement that will never come.
      Send(message.from, kLeader, tag, std::to_string(round.leader));
      return;
    }
    // A lower site challenged us: answer and take over the election.
    Send(message.from, kAnswer, tag);
    if (!round.running) StartElection(tag);
    return;
  }
  if (message.type == kAnswer) {
    Round& round = rounds_[tag];
    if (round.done) return;
    round.answered = true;
    if (round.declare_timer != 0) clock_->Cancel(round.declare_timer);
    // The higher site took over; if it crashes before announcing a leader,
    // restart.
    round.takeover_timer = clock_->ScheduleTimer(
        3 * config_.response_timeout, self_,
        [this, tag, token = std::weak_ptr<char>(alive_token_)]() {
          if (token.expired()) return;
          Round& r = rounds_[tag];
          if (r.done) return;
          r.running = false;
          r.answered = false;
          StartElection(tag);
        });
    return;
  }
  if (message.type == kLeader) {
    // The payload names the leader (usually the sender itself; a relayed
    // announcement after a partition heal may name a third site).
    SiteId leader = message.payload.empty()
                        ? message.from
                        : static_cast<SiteId>(std::stoul(message.payload));
    Round& round = rounds_[tag];
    if (leader < self_) {
      // The bully rule: no lower site leads while this one is up (and it
      // is, since it is handling messages). A stale announcement, e.g.
      // from a candidate that timed out before our own won, is contested,
      // not accepted.
      if (round.done) {
        // Tell the claimant who won instead, as for a late challenge.
        Send(message.from, kLeader, tag, std::to_string(round.leader));
      } else if (!round.running) {
        StartElection(tag);
      }
      return;
    }
    if (round.done && round.leader == leader) return;
    round.done = false;  // Accept the (possibly newer) announcement.
    FinishRound(tag, leader);
    return;
  }
}

void BullyElection::Reset(TransactionId tag) {
  auto it = rounds_.find(tag);
  if (it == rounds_.end()) return;
  if (it->second.declare_timer != 0) clock_->Cancel(it->second.declare_timer);
  if (it->second.takeover_timer != 0) clock_->Cancel(it->second.takeover_timer);
  rounds_.erase(it);
}

void BullyElection::Clear() { rounds_.clear(); }

}  // namespace nbcp
