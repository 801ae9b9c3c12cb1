#ifndef NBCP_SIM_EVENT_QUEUE_H_
#define NBCP_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/message.h"

namespace nbcp {

/// Handle identifying a scheduled event; usable to cancel it.
using EventId = uint64_t;

/// Coarse classification of a scheduled event, used by schedule exploration
/// to tell externally meaningful choice points (message deliveries, protocol
/// starts, injected crashes) apart from bookkeeping callbacks and timers.
enum class EventClass : uint8_t {
  kInternal = 0,  ///< Unlabeled callback (default for plain Push).
  kTimer = 1,     ///< Timeout/periodic callback (detector reports, deadlines).
  kDelivery = 2,  ///< Network message delivery at a receiver site.
  kStart = 3,     ///< Protocol start (the model's virtual __request).
  kCrash = 4,     ///< Injected site crash (scheduled by an explorer).
};

/// Metadata attached to a scheduled event. Only meaningful fields are set:
/// deliveries carry receiver/sender/type/seq, starts carry the started site,
/// crashes carry the crashed site. The label never affects execution; it
/// exists so a ScheduleStrategy can identify events across re-executions.
struct EventLabel {
  EventClass cls = EventClass::kInternal;
  SiteId site = kNoSite;   ///< Receiver (delivery) / acting site (start/crash).
  SiteId from = kNoSite;   ///< Sender site for deliveries.
  TransactionId txn = kNoTransaction;
  std::string msg_type;    ///< Message type for deliveries.
  uint64_t seq = 0;        ///< Network sequence number for deliveries.
};

/// A live queue entry as seen by Pending(): enough to identify and fire it.
struct PendingEvent {
  EventId id = 0;
  SimTime time = 0;
  EventLabel label;
};

/// Runs one typed message delivery; `target` is whatever the scheduler
/// passed along with the message (the simulated Network).
using DeliverFn = void (*)(void* target, const Message& msg);

/// The work of one event, as Pop hands it out: either a typed delivery,
/// `deliver(target, msg)`, which needs no closure, or a callback.
struct EventAction {
  std::function<void()> fn;
  DeliverFn deliver = nullptr;
  void* target = nullptr;
  Message msg;

  void operator()() {
    if (deliver != nullptr) {
      deliver(target, msg);
    } else {
      fn();
    }
  }
  /// False for the empty action PopById returns for a dead id.
  explicit operator bool() const {
    return deliver != nullptr || static_cast<bool>(fn);
  }
};

/// Time-ordered queue of simulation events.
///
/// Ordering contract: events pop in ascending `SimTime`; events with equal
/// `SimTime` pop in scheduling order (FIFO), enforced by a monotonically
/// increasing per-queue sequence number assigned at Push. This total order
/// is deterministic and independent of cancellation history, which makes
/// recorded schedules replayable.
///
/// Ids: an id is the push sequence number in the high bits and the entry's
/// slot in the low bits, so ids are unique, never reissued (a reused slot
/// gets a new sequence number), and ascend in push order — (time, id) is
/// the pop order.
///
/// Storage: entries live in a slab of fixed-size chunks with an intrusive
/// free list; a (time, id) binary heap provides time order. Cancellation
/// and PopById free the slot and leave a stale heap node behind, which
/// Pop/NextTime lazily skip (a node is live only while its slot still
/// holds its id). Cancel of an id that already fired, or never existed, is
/// a strict no-op. When the last live event leaves, the queue gives back
/// every chunk but the first and a large heap array, so a simulator that
/// drains between waves does not hold its high-water mark.
///
/// Thread safety: none. Only the single-threaded Simulator uses a queue;
/// the threaded backend's timers live in WallClock.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `at`. Returns a cancellation handle.
  EventId Push(SimTime at, std::function<void()> fn);

  /// Schedules `fn` at absolute time `at` with an exploration label.
  EventId Push(SimTime at, EventLabel label, std::function<void()> fn);

  /// Schedules a typed delivery at absolute time `at`: firing it calls
  /// `deliver(target, msg)`. Pending() labels it kDelivery at `msg.to`,
  /// with the message's sender, transaction, type and network seq.
  EventId PushDelivery(SimTime at, DeliverFn deliver, void* target,
                       Message msg);

  /// Cancels a pending event. No effect on ids that already fired, were
  /// already cancelled, or were never issued.
  void Cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  bool Empty() const { return live_ == 0; }

  /// Time of the earliest live event. Requires !Empty().
  SimTime NextTime();

  /// Removes and returns the earliest live event's action, setting `*time`
  /// to its timestamp. Requires !Empty().
  EventAction Pop(SimTime* time);

  /// Removes and returns the action of the live event `id`, setting
  /// `*time` to its timestamp. Returns an empty action if `id` is not
  /// pending (already fired, cancelled, or unknown).
  EventAction PopById(EventId id, SimTime* time);

  /// True when `id` is still pending.
  bool Contains(EventId id) const { return Find(id) != nullptr; }

  /// Number of live events.
  size_t Size() const { return live_; }

  /// Snapshot of all live events in pop order (time, then scheduling seq).
  std::vector<PendingEvent> Pending() const;

 private:
  static constexpr int kSlotBits = 24;
  static constexpr uint32_t kMaxSlots = uint32_t{1} << kSlotBits;
  // 64 slots of ~264 bytes: the chunk a drained queue keeps is small
  // (256-slot chunks raised sim-crash-recovery's peak heap by 2%).
  static constexpr int kChunkBits = 6;
  static constexpr uint32_t kChunkSize = uint32_t{1} << kChunkBits;
  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  struct Slot {
    SimTime time = 0;
    EventId id = 0;  ///< 0 while the slot is free.
    uint32_t next_free = kNoSlot;
    EventLabel label;  ///< Unused by typed deliveries (derived instead).
    EventAction action;
  };
  struct HeapItem {
    SimTime time;
    EventId id;
  };
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  Slot& At(uint32_t index) const {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }
  /// The slot holding live event `id`, or nullptr.
  Slot* Find(EventId id) const;
  /// Claims a free slot for an event at `at` and queues it; returns it.
  Slot& Claim(SimTime at);
  /// Moves the action out of the live `slot`, frees it, and releases the
  /// storage if that was the last live event.
  EventAction Take(Slot& slot, SimTime* time);
  /// Drops heap nodes whose slot no longer holds their id.
  void SkipDead();
  /// Called when the last live event leaves: forgets every slot and heap
  /// node and gives back all but the first chunk.
  void Release();

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t used_ = 0;  ///< Slots handed out since the last Release.
  uint32_t free_head_ = kNoSlot;
  std::vector<HeapItem> heap_;  ///< Min-heap on (time, id) under Later.
  size_t live_ = 0;
  uint64_t next_seq_ = 1;  ///< Starts at 1 so that 0 is never an id.
};

}  // namespace nbcp

#endif  // NBCP_SIM_EVENT_QUEUE_H_
