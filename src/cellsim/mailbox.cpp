#include "cellsim/mailbox.hpp"

namespace cellsim {

Mailbox::Mailbox(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw MailboxFault("mailbox capacity must be >= 1");
  slots_.resize(capacity);
}

void Mailbox::push_locked(std::uint32_t value, simtime::SimTime stamp) {
  slots_[(head_ + size_) % capacity_] = MailboxEntry{value, stamp};
  ++size_;
  not_empty_.notify_one();
}

MailboxEntry Mailbox::pop_locked() {
  const MailboxEntry e = slots_[head_];
  head_ = (head_ + 1) % capacity_;
  --size_;
  not_full_.notify_one();
  return e;
}

std::size_t Mailbox::count() const {
  std::lock_guard lock(mu_);
  return size_;
}

std::size_t Mailbox::free_slots() const {
  std::lock_guard lock(mu_);
  return capacity_ - size_;
}

void Mailbox::push_blocking(std::uint32_t value, simtime::SimTime stamp) {
  std::unique_lock lock(mu_);
  not_full_.wait(lock, [&] { return closed_ || size_ < capacity_; });
  if (closed_) throw MailboxFault("push on closed mailbox");
  push_locked(value, stamp);
}

bool Mailbox::try_push(std::uint32_t value, simtime::SimTime stamp) {
  std::lock_guard lock(mu_);
  if (closed_) throw MailboxFault("push on closed mailbox");
  if (size_ >= capacity_) return false;
  push_locked(value, stamp);
  return true;
}

MailboxEntry Mailbox::pop_blocking() {
  std::unique_lock lock(mu_);
  while (!closed_ && size_ == 0) {
    reader_waiting_.store(true, std::memory_order_release);
    not_empty_.wait(lock);
    reader_waiting_.store(false, std::memory_order_release);
  }
  if (size_ == 0) throw MailboxFault("pop on closed mailbox");
  return pop_locked();
}

std::optional<simtime::SimTime> Mailbox::earliest_stamp() const {
  std::lock_guard lock(mu_);
  if (size_ == 0) return std::nullopt;
  return slots_[head_].stamp;
}

std::optional<MailboxEntry> Mailbox::try_pop() {
  std::lock_guard lock(mu_);
  if (size_ == 0) {
    if (closed_) throw MailboxFault("pop on closed mailbox");
    return std::nullopt;
  }
  return pop_locked();
}

void Mailbox::close() {
  std::lock_guard lock(mu_);
  closed_ = true;
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool Mailbox::closed() const {
  std::lock_guard lock(mu_);
  return closed_;
}

}  // namespace cellsim
