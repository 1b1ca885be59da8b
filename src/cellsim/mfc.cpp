#include "cellsim/mfc.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "cellsim/inject.hpp"
#include "simtime/tracebuf.hpp"

namespace cellsim {

Mfc::Mfc(LocalStore& ls, simtime::VirtualClock& clock,
         const simtime::CostModel& cost, std::string owner_name)
    : ls_(ls), clock_(clock), cost_(cost), owner_(std::move(owner_name)) {}

void Mfc::validate_size_alignment(LsAddr ls_addr, EffectiveAddress ea,
                                  std::size_t size) {
  const bool small = size == 1 || size == 2 || size == 4 || size == 8;
  const bool quad_multiple = size >= 16 && size % 16 == 0;
  if (!small && !quad_multiple) {
    throw DmaFault("MFC transfer size " + std::to_string(size) +
                   " is not 1/2/4/8/16 or a multiple of 16");
  }
  if (size > kMfcMaxTransfer) {
    throw DmaFault("MFC transfer size " + std::to_string(size) +
                   " exceeds the 16 KB per-command limit");
  }
  const std::size_t align = small ? size : 16;
  if (ls_addr % align != 0) {
    throw DmaFault("MFC local-store address " + std::to_string(ls_addr) +
                   " not aligned to " + std::to_string(align));
  }
  if (ea % align != 0) {
    throw DmaFault("MFC effective address not aligned to " +
                   std::to_string(align));
  }
}

void Mfc::transfer(Dir dir, LsAddr ls_addr, EffectiveAddress ea,
                   std::size_t size, unsigned tag, bool list_element) {
  if (tag >= kMfcTagCount) {
    throw DmaFault("MFC tag " + std::to_string(tag) + " out of range [0,31]");
  }
  validate_size_alignment(ls_addr, ea, size);

  const inject::Action act =
      inject::probe(inject::Site::kDma, owner_.c_str(), clock_.now());
  if (act.delay > 0) {
    clock_.advance(act.delay);
  }
  if (act.fault) {
    throw DmaFault("injected DMA fault on " + owner_ + " (" +
                   std::to_string(size) + "B tag=" + std::to_string(tag) +
                   ")");
  }

  // Move the data now (functional semantics)...
  if (dir == Dir::kGet) {
    ls_.write(ls_addr, ptr_of(ea), size);
  } else {
    ls_.read(ls_addr, ptr_of(ea), size);
  }

  // ...but complete in virtual time at issue + modelled DMA latency.  List
  // elements share one command's setup; the extra elements cost per-chunk.
  const simtime::SimTime issue = clock_.now();
  const simtime::SimTime latency = list_element
                                       ? cost_.dma_per_chunk +
                                             cost_.dma_per_byte *
                                                 static_cast<simtime::SimTime>(size)
                                       : cost_.dma_transfer(size);
  const simtime::SimTime done = issue + latency;

  std::lock_guard lock(mu_);
  tag_completion_[tag] = std::max(tag_completion_[tag], done);
  tag_used_[tag] = true;
  ++commands_;
  bytes_ += size;
  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(dir == Dir::kGet
                                  ? simtime::tracebuf::Kind::kDmaGet
                                  : simtime::tracebuf::Kind::kDmaPut,
                              owner_, issue, done, size, /*channel=*/-1,
                              /*route_type=*/0, static_cast<std::int64_t>(tag));
  }
}

void Mfc::get(LsAddr ls_addr, EffectiveAddress ea, std::size_t size,
              unsigned tag) {
  transfer(Dir::kGet, ls_addr, ea, size, tag, /*list_element=*/false);
}

void Mfc::put(LsAddr ls_addr, EffectiveAddress ea, std::size_t size,
              unsigned tag) {
  transfer(Dir::kPut, ls_addr, ea, size, tag, /*list_element=*/false);
}

void Mfc::get_list(LsAddr ls_addr, const std::vector<MfcListElement>& list,
                   unsigned tag) {
  LsAddr cursor = ls_addr;
  bool first = true;
  for (const MfcListElement& el : list) {
    transfer(Dir::kGet, cursor, el.ea, el.size, tag, /*list_element=*/!first);
    cursor += el.size;
    first = false;
  }
}

void Mfc::put_list(LsAddr ls_addr, const std::vector<MfcListElement>& list,
                   unsigned tag) {
  LsAddr cursor = ls_addr;
  bool first = true;
  for (const MfcListElement& el : list) {
    transfer(Dir::kPut, cursor, el.ea, el.size, tag, /*list_element=*/!first);
    cursor += el.size;
    first = false;
  }
}

namespace {

// Largest power-of-two alignment shared by both addresses (capped at 256).
std::size_t co_alignment(std::uint64_t a, std::uint64_t b) {
  return std::size_t{1} << std::countr_zero(a | b | 256u);
}

// Largest legal single-command size for a transfer of `remaining` bytes with
// the given co-alignment, assuming both addresses share alignment.
std::size_t next_piece(std::size_t remaining, std::size_t addr_align) {
  if (remaining >= 16 && addr_align % 16 == 0) {
    return std::min(remaining / 16 * 16, kMfcMaxTransfer);
  }
  for (std::size_t s : {std::size_t{8}, std::size_t{4}, std::size_t{2},
                        std::size_t{1}}) {
    if (remaining >= s && addr_align % s == 0) return s;
  }
  return 1;
}

}  // namespace

void Mfc::get_any(LsAddr ls_addr, EffectiveAddress ea, std::size_t size,
                  unsigned tag) {
  while (size > 0) {
    const std::size_t align = co_alignment(ls_addr, ea);
    const std::size_t piece = next_piece(size, align);
    get(ls_addr, ea, piece, tag);
    ls_addr += static_cast<LsAddr>(piece);
    ea += piece;
    size -= piece;
  }
}

void Mfc::put_any(LsAddr ls_addr, EffectiveAddress ea, std::size_t size,
                  unsigned tag) {
  while (size > 0) {
    const std::size_t align = co_alignment(ls_addr, ea);
    const std::size_t piece = next_piece(size, align);
    put(ls_addr, ea, piece, tag);
    ls_addr += static_cast<LsAddr>(piece);
    ea += piece;
    size -= piece;
  }
}

void Mfc::write_tag_mask(std::uint32_t mask) {
  std::lock_guard lock(mu_);
  tag_mask_ = mask;
}

std::uint32_t Mfc::read_tag_status_all() {
  simtime::SimTime stall_until = 0;
  std::uint32_t completed = 0;
  {
    std::lock_guard lock(mu_);
    for (unsigned t = 0; t < kMfcTagCount; ++t) {
      if ((tag_mask_ >> t) & 1u) {
        if (tag_used_[t]) {
          stall_until = std::max(stall_until, tag_completion_[t]);
          completed |= 1u << t;
          tag_used_[t] = false;
        }
      }
    }
  }
  clock_.join(stall_until);
  return completed;
}

std::uint32_t Mfc::read_tag_status_immediate() {
  const simtime::SimTime now = clock_.now();
  std::uint32_t completed = 0;
  std::lock_guard lock(mu_);
  for (unsigned t = 0; t < kMfcTagCount; ++t) {
    if (((tag_mask_ >> t) & 1u) && tag_used_[t] && tag_completion_[t] <= now) {
      completed |= 1u << t;
      tag_used_[t] = false;
    }
  }
  return completed;
}

std::uint64_t Mfc::commands_issued() const {
  std::lock_guard lock(mu_);
  return commands_;
}

std::uint64_t Mfc::bytes_moved() const {
  std::lock_guard lock(mu_);
  return bytes_;
}

}  // namespace cellsim
