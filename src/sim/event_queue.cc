#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace nbcp {
namespace {

/// The label of a typed delivery of `msg`: kDelivery at the receiver, with
/// the sender, transaction, message type and network sequence number.
EventLabel DeliveryLabel(const Message& msg) {
  EventLabel label;
  label.cls = EventClass::kDelivery;
  label.site = msg.to;
  label.from = msg.from;
  label.txn = msg.txn;
  label.msg_type = msg.type;
  label.seq = msg.seq;
  return label;
}

}  // namespace

EventId EventQueue::Push(SimTime at, std::function<void()> fn) {
  return Push(at, EventLabel{}, std::move(fn));
}

EventId EventQueue::Push(SimTime at, EventLabel label,
                         std::function<void()> fn) {
  Slot& slot = Claim(at);
  slot.label = std::move(label);
  slot.action.fn = std::move(fn);
  slot.action.deliver = nullptr;
  return slot.id;
}

EventId EventQueue::PushDelivery(SimTime at, DeliverFn deliver, void* target,
                                 Message msg) {
  Slot& slot = Claim(at);
  slot.action.deliver = deliver;
  slot.action.target = target;
  slot.action.msg = std::move(msg);
  return slot.id;
}

EventQueue::Slot& EventQueue::Claim(SimTime at) {
  uint32_t index = free_head_;
  if (index != kNoSlot) {
    free_head_ = At(index).next_free;
  } else {
    assert(used_ < kMaxSlots && "event queue slot space exhausted");
    index = used_++;
    if ((index >> kChunkBits) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
  }
  assert(next_seq_ < (uint64_t{1} << (64 - kSlotBits)) - 1);
  Slot& slot = At(index);
  slot.time = at;
  slot.id = (next_seq_++ << kSlotBits) | index;
  heap_.push_back(HeapItem{at, slot.id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return slot;
}

EventQueue::Slot* EventQueue::Find(EventId id) const {
  const uint32_t index = static_cast<uint32_t>(id & (kMaxSlots - 1));
  if (id == 0 || index >= used_) return nullptr;
  Slot& slot = At(index);
  return slot.id == id ? &slot : nullptr;
}

EventAction EventQueue::Take(Slot& slot, SimTime* time) {
  *time = slot.time;
  EventAction action = std::move(slot.action);
  slot.action.fn = nullptr;
  slot.action.deliver = nullptr;
  slot.next_free = free_head_;
  free_head_ = static_cast<uint32_t>(slot.id & (kMaxSlots - 1));
  slot.id = 0;
  if (--live_ == 0) Release();
  return action;
}

void EventQueue::Cancel(EventId id) {
  SimTime ignored;
  // Only a live slot is touched, so cancelling a fired id is a strict
  // no-op even when its slot now holds another event. The stale heap node
  // is skipped lazily; the action is destroyed after the bookkeeping.
  if (Slot* slot = Find(id)) Take(*slot, &ignored);
}

void EventQueue::SkipDead() {
  while (!heap_.empty() && Find(heap_.front().id) == nullptr) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

SimTime EventQueue::NextTime() {
  SkipDead();
  assert(!heap_.empty());
  return heap_.front().time;
}

EventAction EventQueue::Pop(SimTime* time) {
  SkipDead();
  assert(!heap_.empty());
  const EventId id = heap_.front().id;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  return Take(*Find(id), time);
}

EventAction EventQueue::PopById(EventId id, SimTime* time) {
  Slot* slot = Find(id);
  if (slot == nullptr) return {};
  return Take(*slot, time);
}

void EventQueue::Release() {
  chunks_.resize(std::min<size_t>(chunks_.size(), 1));
  if (heap_.capacity() > kChunkSize) {
    std::vector<HeapItem>().swap(heap_);
  } else {
    heap_.clear();
  }
  used_ = 0;
  free_head_ = kNoSlot;
}

std::vector<PendingEvent> EventQueue::Pending() const {
  std::vector<PendingEvent> out;
  out.reserve(live_);
  for (uint32_t index = 0; index < used_; ++index) {
    const Slot& slot = At(index);
    if (slot.id == 0) continue;
    out.push_back(PendingEvent{slot.id, slot.time,
                               slot.action.deliver != nullptr
                                   ? DeliveryLabel(slot.action.msg)
                                   : slot.label});
  }
  // Pop order: time, then scheduling sequence, which is the order of ids.
  std::sort(out.begin(), out.end(),
            [](const PendingEvent& a, const PendingEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.id < b.id;
            });
  return out;
}

}  // namespace nbcp
