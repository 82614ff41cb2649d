#include "query/merge_context.h"

#include <algorithm>
#include <bit>

#include "geom/region.h"
#include "util/status.h"

namespace qsp {

MergeContext::MergeContext(const QuerySet* queries,
                           const SizeEstimator* estimator,
                           const MergeProcedure* procedure, GroupMemo memo)
    : queries_(queries),
      estimator_(estimator),
      procedure_(procedure),
      memo_(memo) {
  QSP_CHECK(queries != nullptr);
  QSP_CHECK(estimator != nullptr);
  QSP_CHECK(procedure != nullptr);
  bounding_box_region_ = procedure->traits().region_is_bounding_box;
  if (obs::Enabled()) {
    auto& registry = obs::MetricRegistry::Default();
    size_hits_ = &registry.counter("ctx.size_cache.hits");
    size_misses_ = &registry.counter("ctx.size_cache.misses");
    group_hits_ = &registry.counter("ctx.group_cache.hits");
    group_misses_ = &registry.counter("ctx.group_cache.misses");
  }
}

MergeContext::SizeSlot& MergeContext::SizeSlotOf(QueryId id) const {
  // Chunk k starts at id kFirstChunk * (2^k - 1), so the highest bit of
  // id / kFirstChunk + 1 is bit k.
  const size_t k = std::bit_width(size_t{id} / kFirstChunk + 1) - 1;
  return size_chunks_[k].load(std::memory_order_acquire)
      [id - kFirstChunk * ((size_t{1} << k) - 1)];
}

double MergeContext::Size(QueryId id) const {
  // The lock-free hit path: a query-set size equal to size_synced_ means
  // the chunks covering every id below it are published.
  const size_t n = queries_->size();
  if (id < n && n == size_synced_.load(std::memory_order_acquire)) {
    const uint64_t bits = SizeSlotOf(id).load(std::memory_order_relaxed);
    if (bits != kUnknownSize) {
      if (size_hits_ != nullptr) size_hits_->Add();
      return std::bit_cast<double>(bits);
    }
  }
  return SizeMiss(id);
}

double MergeContext::SizeMiss(QueryId id) const {
  {
    std::lock_guard<std::mutex> lock(size_mu_);
    SyncSizeSlots();
    QSP_CHECK(id < queries_->size());
    const uint64_t bits = SizeSlotOf(id).load(std::memory_order_relaxed);
    if (bits != kUnknownSize) {
      if (size_hits_ != nullptr) size_hits_->Add();
      return std::bit_cast<double>(bits);
    }
  }
  // Compute outside the lock: the estimator call is the expensive part
  // and is deterministic, so racing threads agree on the value.
  const double size = estimator_->EstimateSize(queries_->rect(id));
  std::lock_guard<std::mutex> lock(size_mu_);
  SizeSlot& slot = SizeSlotOf(id);
  const uint64_t bits = slot.load(std::memory_order_relaxed);
  if (bits == kUnknownSize) {
    if (size_misses_ != nullptr) size_misses_->Add();
    slot.store(std::bit_cast<uint64_t>(size), std::memory_order_relaxed);
    return size;
  }
  if (size_hits_ != nullptr) size_hits_->Add();
  return std::bit_cast<double>(bits);
}

void MergeContext::SyncSizeSlots() const {
  const size_t n = queries_->size();
  const size_t synced = size_synced_.load(std::memory_order_relaxed);
  if (n == synced) return;
  if (n < synced) {
    // The query set shrank (dynamic scenario): a shrink reassigns ids,
    // so every known size — and every cached group keyed by those ids —
    // is stale and must go. Growth keeps old ids valid, so known sizes
    // survive it. (Not safe concurrently with planning; the dynamic
    // scenario mutates between rounds.)
    for (size_t k = 0; k < size_chunk_count_; ++k) {
      for (size_t i = 0; i < kFirstChunk << k; ++i) {
        size_chunk_owners_[k][i].store(kUnknownSize,
                                       std::memory_order_relaxed);
      }
    }
    for (GroupShard& shard : group_shards_) {
      std::lock_guard<std::mutex> shard_lock(shard.mu);
      shard.cache.clear();
    }
  }
  while (kFirstChunk * ((size_t{1} << size_chunk_count_) - 1) < n) {
    const size_t k = size_chunk_count_++;
    auto chunk = std::make_unique<SizeSlot[]>(kFirstChunk << k);
    for (size_t i = 0; i < kFirstChunk << k; ++i) {
      chunk[i].store(kUnknownSize, std::memory_order_relaxed);
    }
    size_chunks_[k].store(chunk.get(), std::memory_order_release);
    size_chunk_owners_[k] = std::move(chunk);
  }
  size_synced_.store(n, std::memory_order_release);
}

GroupStats MergeContext::Stats(const QueryGroup& group) const {
  if (memo_ == GroupMemo::kEvaluateOnly) {
    groups_computed_.fetch_add(1, std::memory_order_relaxed);
    return Compute(group);
  }
  GroupShard& shard =
      group_shards_[GroupHash{}(group) % kGroupShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.cache.find(group);
    if (it != shard.cache.end()) {
      if (group_hits_ != nullptr) group_hits_->Add();
      return it->second;
    }
  }
  // Compute outside the lock (procedure merge + estimator calls dominate;
  // both are deterministic). try_emplace keeps the first insert on a
  // race, so every caller sees the same value.
  GroupStats stats = Compute(group);
  if (group_misses_ != nullptr) group_misses_->Add();
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.cache.try_emplace(group, stats).first->second;
}

size_t MergeContext::groups_evaluated() const {
  if (memo_ == GroupMemo::kEvaluateOnly) {
    return groups_computed_.load(std::memory_order_relaxed);
  }
  size_t total = groups_evicted_.load(std::memory_order_relaxed);
  for (const GroupShard& shard : group_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.cache.size();
  }
  return total;
}

size_t MergeContext::cached_groups() const {
  size_t total = 0;
  for (const GroupShard& shard : group_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.cache.size();
  }
  return total;
}

size_t MergeContext::group_arena_bytes() const {
  size_t total = 0;
  for (const GroupShard& shard : group_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.arena.bytes_served();
  }
  return total;
}

size_t MergeContext::EvictGroupsContaining(
    const std::vector<QueryId>& ids) const {
  if (ids.empty()) return 0;
  std::vector<bool> dead(
      static_cast<size_t>(*std::max_element(ids.begin(), ids.end())) + 1,
      false);
  for (QueryId id : ids) dead[id] = true;
  auto holds_dead = [&dead](const QueryGroup& group) {
    return std::any_of(group.begin(), group.end(), [&dead](QueryId member) {
      return member < dead.size() && dead[member];
    });
  };
  size_t erased = 0;
  for (GroupShard& shard : group_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.cache.begin(); it != shard.cache.end();) {
      if (holds_dead(it->first)) {
        it = shard.cache.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
  }
  groups_evicted_.fetch_add(erased, std::memory_order_relaxed);
  obs::Count("ctx.group_cache.evictions", erased);
  return erased;
}

GroupStats MergeContext::Compute(const QueryGroup& group) const {
  GroupStats stats;
  if (group.empty()) return stats;
  if (group.size() == 1) {
    // A singleton group is transmitted as-is: one message, no overhead.
    stats.messages = 1.0;
    stats.size = Size(group[0]);
    stats.irrelevant = 0.0;
    return stats;
  }
  if (bounding_box_region_) {
    // The procedure's one merged query, built here without calling it:
    // the members' bounding box (no piece when every member is empty)
    // serving the whole group. Its size is the sum EstimateRegionSize
    // makes over that one piece.
    Rect box = Rect::Empty();
    for (QueryId id : group) box = box.BoundingUnion(queries_->rect(id));
    const std::span<const Rect> region(&box, box.IsEmpty() ? 0 : 1);
    double merged_size = 0.0;
    for (const Rect& piece : region) {
      merged_size += estimator_->EstimateSize(piece);
    }
    AddMergedQuery(region, merged_size, group, &stats);
    return stats;
  }
  for (const MergedQuery& merged : procedure_->Merge(*queries_, group)) {
    AddMergedQuery(merged.region, estimator_->EstimateRegionSize(merged.region),
                   merged.members, &stats);
  }
  return stats;
}

void MergeContext::AddMergedQuery(std::span<const Rect> region,
                                  double merged_size,
                                  const QueryGroup& members,
                                  GroupStats* stats) const {
  stats->messages += 1.0;
  stats->size += merged_size;
  for (QueryId member : members) {
    const Rect& member_rect = queries_->rect(member);
    // Portion of the merged answer relevant to this member. A single
    // piece containing a non-empty member clips to the member rect
    // itself, whose estimate Size() already holds.
    if (region.size() == 1 && !member_rect.IsEmpty() &&
        region.front().Contains(member_rect)) {
      stats->irrelevant += merged_size - Size(member);
      continue;
    }
    double relevant = 0.0;
    for (const Rect& piece : region) {
      const Rect clipped = piece.Intersection(member_rect);
      if (!clipped.IsEmpty()) relevant += estimator_->EstimateSize(clipped);
    }
    stats->irrelevant += merged_size - relevant;
  }
}

std::vector<MergedQuery> MergeContext::Merged(const QueryGroup& group) const {
  return procedure_->Merge(*queries_, group);
}

double MergeContext::UnionSize(QueryId a, QueryId b) const {
  const Rect& ra = queries_->rect(a);
  const Rect& rb = queries_->rect(b);
  // Fast path for x-separated positive-area rects: UnionOf's slab sweep
  // provably decomposes such a pair into exactly the two input rects
  // ordered by x_lo, so we can skip the sweep and hand the estimator the
  // identical piece list (bit-exact, including the virtual
  // EstimateRegionSize dispatch). Touching edges (x_hi == x_lo) included.
  // y-separated-but-x-overlapping pairs get slab cuts, so no fast path.
  if (ra.Width() > 0 && ra.Height() > 0 && rb.Width() > 0 && rb.Height() > 0) {
    if (ra.x_hi() <= rb.x_lo()) {
      return estimator_->EstimateRegionSize({ra, rb});
    }
    if (rb.x_hi() <= ra.x_lo()) {
      return estimator_->EstimateRegionSize({rb, ra});
    }
  }
  RectilinearRegion region = RectilinearRegion::UnionOf({ra, rb});
  return estimator_->EstimateRegionSize(region.pieces());
}

double MergeContext::IntersectionSize(QueryId a, QueryId b) const {
  const Rect overlap = queries_->rect(a).Intersection(queries_->rect(b));
  return overlap.IsEmpty() ? 0.0 : estimator_->EstimateSize(overlap);
}

}  // namespace qsp
