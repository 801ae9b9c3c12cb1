#ifndef NBCP_PROTOCOLS_COMPILED_ROLE_H_
#define NBCP_PROTOCOLS_COMPILED_ROLE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "fsa/protocol_spec.h"

namespace nbcp {

/// One role automaton of a ProtocolSpec compiled for one site of an n-site
/// population: the finite message alphabet interned to small ids, every
/// group resolved, and the transitions grouped by source state.
///
/// A site's buffered input is then a flat count array (the "inbox"),
/// indexed by Slot(type, from) and sized inbox_size(). The enabling rule,
/// NextFiring, is the one both the runtime engine and the conformance
/// checker run, so the checker mirrors exactly what the engine fires.
class CompiledRole {
 public:
  /// Interned message type: an index into the role's trigger alphabet.
  using TypeId = uint32_t;
  /// The virtual "__request" input, buffered at Slot(kRequestType, kNoSite).
  static constexpr TypeId kRequestType = 0;
  /// A type no trigger of this role reads.
  static constexpr TypeId kNoType = UINT32_MAX;

  /// One compiled transition.
  struct Step {
    /// Index into the automaton's transitions().
    size_t transition = 0;
    StateIndex to = kNoState;
    TriggerKind kind = TriggerKind::kClientRequest;
    /// The trigger's message type and the sites it reads from.
    TypeId type = kRequestType;
    ProtocolSpec::SiteRun senders;
    bool votes_yes = false;
    bool votes_no = false;
    bool or_self_vote_no = false;
    /// The step's sends, in order, as a range of the role's sends; see
    /// SendsOf().
    uint32_t sends_begin = 0;
    uint32_t sends_end = 0;
    /// Messages the sends address, self included.
    size_t num_targets = 0;
  };

  /// One message emission of a step.
  struct Send {
    /// The Message::type to send.
    const std::string* type_name = nullptr;
    /// The type as this role reads it (for self-sends), or kNoType.
    TypeId type = kNoType;
    ProtocolSpec::SiteRun to;
  };

  /// The transition the enabling rule picked and the input it consumes.
  struct Firing {
    /// The transition, as an index for step().
    uint32_t step = 0;
    /// The consumed messages: their type and senders. No senders when the
    /// firing is the site's spontaneous own "no" vote (self_vote).
    TypeId type = kRequestType;
    std::span<const SiteId> consumed;
    bool self_vote = false;
  };

  /// `spec` must outlive the compiled role.
  CompiledRole(const ProtocolSpec& spec, SiteId site, size_t n);

  CompiledRole(const CompiledRole&) = delete;
  CompiledRole& operator=(const CompiledRole&) = delete;
  CompiledRole(CompiledRole&&) = default;
  CompiledRole& operator=(CompiledRole&&) = default;

  const Automaton& automaton() const { return *automaton_; }

  const std::string& TypeName(TypeId type) const { return type_names_[type]; }

  /// The id of a message type, or kNoType when no trigger reads it.
  TypeId Intern(std::string_view type) const {
    for (TypeId id = 0; id < type_names_.size(); ++id) {
      if (type_names_[id] == type) return id;
    }
    return kNoType;
  }

  /// Inbox size: one counter per (type, from) with from in 0..n.
  size_t inbox_size() const { return type_names_.size() * (n_ + 1); }

  /// True when a message from `from` can be buffered (1..n).
  bool ValidSender(SiteId from) const { return from >= 1 && from <= n_; }

  /// The inbox index of (type, from). `from` must be 0..n.
  size_t Slot(TypeId type, SiteId from) const { return type * (n_ + 1) + from; }

  const Step& step(uint32_t i) const { return steps_[i]; }
  std::span<const Send> SendsOf(const Step& step) const {
    return {sends_.data() + step.sends_begin, sends_.data() + step.sends_end};
  }
  /// The sites of a resolved group, ascending.
  std::span<const SiteId> Sites(ProtocolSpec::SiteRun run) const {
    return {pool_.data() + run.first, run.count};
  }

  /// The engine's deterministic firing rule: the first transition out of
  /// `state`, in spec order, that `inbox` and the site's vote enable, or
  /// nullopt when none is (or `state` is final). An empty `inbox` holds no
  /// messages. `vote()` returns the site's vote; it is consulted lazily, in
  /// the order the rule needs it, so a hook with side effects sees the
  /// same calls as always. `vote_cast` tells whether the site already cast
  /// its vote.
  template <typename VoteFn>
  std::optional<Firing> NextFiring(StateIndex state,
                                   std::span<const uint32_t> inbox,
                                   bool vote_cast, VoteFn&& vote) const;

  /// Removes a firing's consumed messages from `inbox`.
  void Consume(const Firing& firing, std::span<uint32_t> inbox) const {
    for (SiteId from : firing.consumed) --inbox[Slot(firing.type, from)];
  }

 private:
  const Automaton* automaton_;
  size_t n_;
  /// The trigger alphabet, indexed by TypeId; "__request" is id 0.
  std::vector<std::string> type_names_;
  /// pool_[i] == i for i in 0..n: every resolved group is a run in it.
  std::vector<SiteId> pool_;
  std::vector<Step> steps_;
  /// steps_[state_begin_[s], state_begin_[s + 1]) leave state s.
  std::vector<uint32_t> state_begin_;
  std::vector<Send> sends_;
};

template <typename VoteFn>
std::optional<CompiledRole::Firing> CompiledRole::NextFiring(
    StateIndex state, std::span<const uint32_t> inbox, bool vote_cast,
    VoteFn&& vote) const {
  if (IsFinal(automaton_->state(state).kind)) return std::nullopt;
  auto present = [&](TypeId type, SiteId from) {
    return !inbox.empty() && inbox[Slot(type, from)] != 0;
  };
  for (uint32_t i = state_begin_[state]; i < state_begin_[state + 1]; ++i) {
    const Step& t = steps_[i];
    std::span<const SiteId> senders = Sites(t.senders);
    switch (t.kind) {
      case TriggerKind::kClientRequest:
      case TriggerKind::kOneFrom:
        // Vote-branch selection: a voting transition fires only if it
        // matches this site's vote.
        for (size_t k = 0; k < senders.size(); ++k) {
          if (!present(t.type, senders[k])) continue;
          if (t.votes_yes && !vote()) continue;
          if (t.votes_no && vote()) continue;
          return Firing{i, t.type, senders.subspan(k, 1), false};
        }
        break;
      case TriggerKind::kAllFrom: {
        if (t.votes_yes && !vote()) break;
        if (t.votes_no && vote()) break;
        bool all_present = true;
        for (SiteId sender : senders) {
          if (!present(t.type, sender)) {
            all_present = false;
            break;
          }
        }
        if (all_present) return Firing{i, t.type, senders, false};
        break;
      }
      case TriggerKind::kAnyFrom:
        for (size_t k = 0; k < senders.size(); ++k) {
          if (present(t.type, senders[k])) {
            return Firing{i, t.type, senders.subspan(k, 1), false};
          }
        }
        // Spontaneous own-"no" firing, e.g. the coordinator's "(no_1)".
        if (t.or_self_vote_no && !vote_cast && !vote()) {
          return Firing{i, t.type, {}, /*self_vote=*/true};
        }
        break;
    }
  }
  return std::nullopt;
}

}  // namespace nbcp

#endif  // NBCP_PROTOCOLS_COMPILED_ROLE_H_
