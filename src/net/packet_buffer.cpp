#include "net/packet_buffer.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace xlink::net {
namespace {

detail::PacketSlot* new_slot(PacketBufferPool* owner, std::size_t capacity) {
  void* mem = ::operator new(sizeof(detail::PacketSlot) + capacity);
  auto* slot = ::new (mem) detail::PacketSlot();
  slot->owner = owner;
  slot->capacity = static_cast<std::uint32_t>(capacity);
  return slot;
}

void free_slot(detail::PacketSlot* slot) noexcept {
  slot->~PacketSlot();
  ::operator delete(static_cast<void*>(slot));
}

}  // namespace

PacketBufferPool::~PacketBufferPool() {
  // Outstanding buffers must not survive their pool (DESIGN.md §8); only
  // the parked free list is reclaimed here.
  while (free_head_) {
    detail::PacketSlot* next = free_head_->next_free;
    free_slot(free_head_);
    free_head_ = next;
  }
}

PacketBufferPool& PacketBufferPool::local() {
  thread_local PacketBufferPool pool;
  return pool;
}

detail::PacketSlot* PacketBufferPool::acquire(std::size_t capacity) {
  ++counters_.acquires;
  if (capacity > kSlotCapacity) {
    ++counters_.oversize_allocs;
    return new_slot(nullptr, capacity);
  }
  if (free_head_) {
    ++counters_.pool_hits;
    detail::PacketSlot* slot = free_head_;
    free_head_ = slot->next_free;
    slot->next_free = nullptr;
    slot->size = 0;
    return slot;
  }
  ++counters_.slab_allocs;
  return new_slot(this, kSlotCapacity);
}

void PacketBufferPool::release(detail::PacketSlot* slot) noexcept {
  if (!slot) return;
  if (!slot->owner) {
    // Oversize blocks have no owning pool; charge the release to the
    // calling thread's pool, which is where the acquire was counted
    // (buffers are thread-confined by design).
    ++local().counters_.releases;
    free_slot(slot);
    return;
  }
  PacketBufferPool& pool = *slot->owner;
  ++pool.counters_.releases;
  slot->next_free = pool.free_head_;
  pool.free_head_ = slot;
}

PacketBuffer::PacketBuffer(std::size_t size)
    : PacketBuffer(PacketBufferPool::local().acquire(size)) {
  slot_->size = static_cast<std::uint32_t>(size);
  std::memset(data(), 0, size);
}

PacketBuffer::PacketBuffer(std::size_t size, std::uint8_t fill)
    : PacketBuffer(PacketBufferPool::local().acquire(size)) {
  slot_->size = static_cast<std::uint32_t>(size);
  std::memset(data(), fill, size);
}

PacketBuffer::PacketBuffer(std::initializer_list<std::uint8_t> bytes)
    : PacketBuffer(copy_of({bytes.begin(), bytes.size()})) {}

PacketBuffer PacketBuffer::with_capacity(std::size_t capacity) {
  return PacketBuffer(PacketBufferPool::local().acquire(capacity));
}

PacketBuffer PacketBuffer::copy_of(std::span<const std::uint8_t> bytes) {
  PacketBuffer buf = with_capacity(bytes.size());
  buf.slot_->size = static_cast<std::uint32_t>(bytes.size());
  if (!bytes.empty()) std::memcpy(buf.data(), bytes.data(), bytes.size());
  return buf;
}

void PacketBuffer::resize(std::size_t n) {
  if (!slot_) {
    slot_ = PacketBufferPool::local().acquire(n);
  } else if (n > slot_->capacity) {
    detail::PacketSlot* bigger = PacketBufferPool::local().acquire(n);
    std::memcpy(bigger->bytes(), slot_->bytes(), slot_->size);
    PacketBufferPool::release(slot_);
    slot_ = bigger;
  }
  slot_->size = static_cast<std::uint32_t>(n);
}

bool PacketBuffer::operator==(const PacketBuffer& other) const {
  return size() == other.size() &&
         std::equal(begin(), end(), other.begin());
}

}  // namespace xlink::net
