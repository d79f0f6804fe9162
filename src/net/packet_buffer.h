// Pooled packet buffers: the zero-allocation datagram backbone.
//
// A PacketBuffer is a move-only RAII handle to one slab slot drawn from a
// thread-local free-list pool. The handle is a single pointer (the slot
// header carries owner/size/capacity), so closures that capture a buffer
// plus a couple of scalars still fit the event loop's inline callback
// storage. Steady-state traffic recycles slots: once a session's working
// set is warm, sealing, queueing, delivering and opening packets touch the
// allocator zero times. Requests beyond the fixed slot capacity fall back
// to an exact-size standalone heap block (rare: jumbo control bursts).
//
// Ownership rules (see DESIGN.md §8): buffers return themselves to their
// pool on destruction, from the thread that owns the pool. Sessions are
// confined to one worker thread, so handles never migrate threads, and a
// buffer must not outlive the thread that acquired it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>

namespace xlink::net {

class PacketBufferPool;

namespace detail {

/// Header preceding each slot's data bytes.
struct PacketSlot {
  PacketBufferPool* owner = nullptr;  // nullptr: standalone heap block
  PacketSlot* next_free = nullptr;    // free-list link while recycled
  std::uint32_t size = 0;
  std::uint32_t capacity = 0;

  std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(this + 1); }
  const std::uint8_t* bytes() const {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }
};

}  // namespace detail

/// Thread-local slab/free-list pool behind PacketBuffer.
class PacketBufferPool {
 public:
  /// Fixed slot capacity: covers kMaxDatagramSize plus AEAD tag with slack,
  /// so every wire packet fits one slot.
  static constexpr std::size_t kSlotCapacity = 2048;

  struct Counters {
    std::uint64_t acquires = 0;         // total buffer requests
    std::uint64_t pool_hits = 0;        // served from the free list
    std::uint64_t slab_allocs = 0;      // new slots minted (cold pool)
    std::uint64_t oversize_allocs = 0;  // > kSlotCapacity, standalone block
    std::uint64_t releases = 0;         // buffers returned (pooled + oversize)

    /// Buffers currently held by live handles. Buffers are thread-confined
    /// (DESIGN.md §8), so at any quiescent point acquires == releases and
    /// this is zero; the invariant auditor bounds it while traffic flows.
    std::uint64_t outstanding() const { return acquires - releases; }
  };

  PacketBufferPool() = default;
  PacketBufferPool(const PacketBufferPool&) = delete;
  PacketBufferPool& operator=(const PacketBufferPool&) = delete;
  ~PacketBufferPool();

  /// The calling thread's pool.
  static PacketBufferPool& local();

  /// Returns a slot with capacity >= `capacity` and size == 0.
  detail::PacketSlot* acquire(std::size_t capacity);

  /// Returns `slot` to its owning pool, or frees a standalone block.
  static void release(detail::PacketSlot* slot) noexcept;

  const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

 private:
  detail::PacketSlot* free_head_ = nullptr;
  Counters counters_;
};

/// Move-only owning handle to pooled packet bytes. Used as net::Datagram.
class PacketBuffer {
 public:
  PacketBuffer() = default;
  /// Zero-filled buffer of `size` bytes.
  explicit PacketBuffer(std::size_t size);
  PacketBuffer(std::size_t size, std::uint8_t fill);
  PacketBuffer(std::initializer_list<std::uint8_t> bytes);

  /// An empty buffer whose storage already spans `capacity` bytes.
  static PacketBuffer with_capacity(std::size_t capacity);
  static PacketBuffer copy_of(std::span<const std::uint8_t> bytes);

  PacketBuffer(PacketBuffer&& other) noexcept : slot_(other.slot_) {
    other.slot_ = nullptr;
  }
  PacketBuffer& operator=(PacketBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      slot_ = other.slot_;
      other.slot_ = nullptr;
    }
    return *this;
  }
  PacketBuffer(const PacketBuffer&) = delete;
  PacketBuffer& operator=(const PacketBuffer&) = delete;
  ~PacketBuffer() { reset(); }

  /// Explicit deep copy (datagrams move on the hot path by design).
  PacketBuffer clone() const { return copy_of(cspan()); }

  void reset() noexcept {
    if (slot_) {
      PacketBufferPool::release(slot_);
      slot_ = nullptr;
    }
  }

  std::uint8_t* data() { return slot_ ? slot_->bytes() : nullptr; }
  const std::uint8_t* data() const { return slot_ ? slot_->bytes() : nullptr; }
  std::size_t size() const { return slot_ ? slot_->size : 0; }
  std::size_t capacity() const { return slot_ ? slot_->capacity : 0; }
  bool empty() const { return size() == 0; }

  /// Sets the size; grows storage when `n` exceeds capacity (bytes beyond
  /// the old size are unspecified -- callers write before they read).
  void resize(std::size_t n);

  std::uint8_t& operator[](std::size_t i) { return data()[i]; }
  const std::uint8_t& operator[](std::size_t i) const { return data()[i]; }

  std::uint8_t* begin() { return data(); }
  std::uint8_t* end() { return data() + size(); }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size(); }

  std::span<std::uint8_t> span() { return {data(), size()}; }
  std::span<const std::uint8_t> cspan() const { return {data(), size()}; }
  operator std::span<const std::uint8_t>() const {  // NOLINT: by design
    return cspan();
  }

  bool operator==(const PacketBuffer& other) const;

 private:
  explicit PacketBuffer(detail::PacketSlot* slot) : slot_(slot) {}

  detail::PacketSlot* slot_ = nullptr;
};

}  // namespace xlink::net
