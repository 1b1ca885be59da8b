#include "cellsim/overlay.hpp"

#include "cellsim/spu.hpp"

namespace cellsim {

OverlayRegion::OverlayRegion() {
  // Fails fast when constructed off-SPE.
  (void)spu::self();
}

OverlayRegion::~OverlayRegion() {
  if (reserved_) {
    // The region was allocated (not a named segment) so it can be freed
    // when the manager goes away.
    spu::self().allocator().deallocate(region_base_);
  }
}

void OverlayRegion::reserve(std::size_t bytes) {
  LsAllocator& alloc = spu::self().allocator();
  if (reserved_) {
    alloc.deallocate(region_base_);
    reserved_ = false;
  }
  region_base_ = alloc.allocate(bytes, 128);
  region_bytes_ = bytes;
  reserved_ = true;
  // Growing the region invalidates whatever was resident.
  resident_ = -1;
}

OverlaySegment OverlayRegion::register_segment(std::string name,
                                               std::size_t bytes) {
  if (bytes == 0) {
    throw LocalStoreFault("overlay segment '" + name + "' has zero size");
  }
  segments_.push_back(Registered{std::move(name), bytes});
  if (bytes > region_bytes_) reserve(bytes);
  return OverlaySegment{static_cast<int>(segments_.size()) - 1};
}

bool OverlayRegion::ensure_loaded(OverlaySegment segment) {
  if (segment.id < 0 || segment.id >= static_cast<int>(segments_.size())) {
    throw LocalStoreFault("overlay: unknown segment handle");
  }
  if (resident_ == segment.id) return false;

  const Registered& seg = segments_[static_cast<std::size_t>(segment.id)];
  const auto& env = spu::env();
  // The swap is one DMA of the segment image from main memory.
  env.spe->clock().advance(env.cost->dma_transfer(seg.bytes));
  resident_ = segment.id;
  ++swaps_;
  return true;
}

const std::string& OverlayRegion::segment_name(OverlaySegment segment) const {
  if (segment.id < 0 || segment.id >= static_cast<int>(segments_.size())) {
    throw LocalStoreFault("overlay: unknown segment handle");
  }
  return segments_[static_cast<std::size_t>(segment.id)].name;
}

}  // namespace cellsim
