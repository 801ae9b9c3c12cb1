#include "protocols/compiled_role.h"

#include "protocols/protocols.h"

namespace nbcp {

CompiledRole::CompiledRole(const ProtocolSpec& spec, SiteId site, size_t n)
    : automaton_(&spec.role(spec.RoleForSite(site, n))), n_(n) {
  const Automaton& a = *automaton_;
  const std::vector<Transition>& transitions = a.transitions();

  // Alphabet: "__request", then every trigger type in spec order.
  type_names_.reserve(transitions.size() + 1);
  type_names_.emplace_back(msg::kRequest);
  for (const Transition& t : transitions) {
    if (t.trigger.kind != TriggerKind::kClientRequest &&
        Intern(t.trigger.msg_type) == kNoType) {
      type_names_.push_back(t.trigger.msg_type);
    }
  }

  pool_.resize(n + 1);
  for (size_t i = 0; i <= n; ++i) pool_[i] = static_cast<SiteId>(i);

  // Steps grouped by source state, in spec order within each state: the
  // engine's firing priority.
  size_t num_sends = 0;
  for (const Transition& t : transitions) num_sends += t.sends.size();
  steps_.reserve(transitions.size());
  sends_.reserve(num_sends);
  state_begin_.reserve(a.num_states() + 1);
  for (size_t state = 0; state < a.num_states(); ++state) {
    state_begin_.push_back(static_cast<uint32_t>(steps_.size()));
    for (size_t ti = 0; ti < transitions.size(); ++ti) {
      const Transition& t = transitions[ti];
      if (t.from != static_cast<StateIndex>(state)) continue;
      Step step;
      step.transition = ti;
      step.to = t.to;
      step.kind = t.trigger.kind;
      if (t.trigger.kind == TriggerKind::kClientRequest) {
        step.type = kRequestType;
        step.senders = {kNoSite, 1};
      } else {
        step.type = Intern(t.trigger.msg_type);
        step.senders = ProtocolSpec::GroupRun(t.trigger.group, site, n);
      }
      step.votes_yes = t.votes_yes;
      step.votes_no = t.votes_no;
      step.or_self_vote_no = t.trigger.or_self_vote_no;
      step.sends_begin = static_cast<uint32_t>(sends_.size());
      for (const SendSpec& send : t.sends) {
        Send s;
        s.type_name = &send.msg_type;
        s.type = Intern(send.msg_type);
        s.to = ProtocolSpec::GroupRun(send.to, site, n);
        step.num_targets += s.to.count;
        sends_.push_back(s);
      }
      step.sends_end = static_cast<uint32_t>(sends_.size());
      steps_.push_back(step);
    }
  }
  state_begin_.push_back(static_cast<uint32_t>(steps_.size()));
}

}  // namespace nbcp
