#ifndef QSP_QUERY_MERGE_CONTEXT_H_
#define QSP_QUERY_MERGE_CONTEXT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "query/merge_procedure.h"
#include "query/query.h"
#include "stats/size_estimator.h"
#include "util/arena.h"
#include "util/thread_annotations.h"

namespace qsp {

/// Aggregate answer statistics of one merged group M_i, the quantities the
/// cost model consumes:
///   messages   — number of merged queries produced for the group
///                (contribution to |M|);
///   size       — total estimated answer size (contribution to size(M));
///   irrelevant — total irrelevant data across the group's member queries
///                (contribution to U(Q, M)).
struct GroupStats {
  double messages = 0.0;
  double size = 0.0;
  double irrelevant = 0.0;
};

/// What a MergeContext keeps of the group statistics it computes; fixed
/// at construction.
enum class GroupMemo {
  /// Memoize every evaluated group, so a repeated lookup is one hash
  /// probe. The default: callers that ask for the same group again (the
  /// exhaustive, partition and directed searches, clustering, the
  /// channel allocator, the live maintainer) need it.
  kStore,
  /// Compute every lookup afresh and store nothing: no hashing, no memo
  /// allocation, nothing to evict or tear down. For a context that
  /// serves one run of a merger that does not revisit groups
  /// (Merger::ContextMemo()), where a memo would mostly hold groups that
  /// are never read again.
  kEvaluateOnly,
};

/// The oracle the merging algorithms run against: size(q), and the merged
/// statistics of any candidate group under a chosen merge procedure and
/// size estimator. Single-query sizes are always memoized. Group
/// statistics are memoized under GroupMemo::kStore, which is what makes
/// the exhaustive partition searches of Sections 6.1/8.1 tractable — the
/// same subgroups recur across thousands of candidate partitions; a
/// GroupMemo::kEvaluateOnly context computes each group lookup afresh.
/// Both policies return bit-identical statistics.
///
/// A group whose procedure declares `region_is_bounding_box` is
/// evaluated without calling the procedure: one pass over the members
/// builds the box, with the same arithmetic the procedure's output would
/// get (this relies on EstimateRegionSize({box}) == EstimateSize(box),
/// which the base SizeEstimator implementation gives).
///
/// Safe for concurrent callers (the qsp::exec parallel planner loops):
/// the group memo is sharded by group hash, each shard guarded by its own
/// mutex, and statistics are computed outside the lock — two threads
/// racing on the same uncached group both compute the (deterministic)
/// value and the first insert wins. Stats() returns a copy, so no caller
/// holds a reference into the memo. Size() reads a known size without
/// any lock: one atomic slot per query id holds the size's bits or
/// "unknown", in chunks of doubling length that never move once
/// published. Only a miss, or a query set that changed size, takes
/// `size_mu_`; the miss's estimate is computed outside it and stored
/// under it, the first store winning. The underlying estimator and
/// procedure must be safe for concurrent const calls; all estimators in
/// src/stats are (read-only after construction).
///
/// Does not own the query set, estimator, or procedure; all must outlive
/// the context.
class MergeContext {
 public:
  MergeContext(const QuerySet* queries, const SizeEstimator* estimator,
               const MergeProcedure* procedure,
               GroupMemo memo = GroupMemo::kStore);

  const QuerySet& queries() const { return *queries_; }
  const MergeProcedure& procedure() const { return *procedure_; }
  const SizeEstimator& estimator() const { return *estimator_; }

  size_t num_queries() const { return queries_->size(); }

  /// size(q): estimated answer size of one original query.
  double Size(QueryId id) const;

  /// Merged statistics of a canonical group: memoized under kStore,
  /// computed on every call under kEvaluateOnly.
  GroupStats Stats(const QueryGroup& group) const;

  /// The merged queries themselves (geometry + members); not memoized —
  /// used once per group by the dissemination server.
  std::vector<MergedQuery> Merged(const QueryGroup& group) const;

  /// Estimated size of the exact union of two queries; the tight lower
  /// bound on any merged size of {a, b}, used by the clustering pruning
  /// rule (Section 6.3).
  double UnionSize(QueryId a, QueryId b) const;

  /// Estimated size of the intersection of two queries.
  double IntersectionSize(QueryId a, QueryId b) const;

  /// Group statistics computed so far, a search-effort metric that
  /// never decreases. A storing context counts the distinct groups it
  /// memoized, evicted ones included (eviction reclaims memory, not
  /// effort history); two threads racing on one uncached group compute
  /// it twice but count it once. An evaluate-only context counts every
  /// Stats() call, since each one computes. Reported as telemetry, never
  /// used in cost decisions.
  size_t groups_evaluated() const;

  /// Groups currently memoized (groups_evaluated() minus evictions);
  /// always 0 on an evaluate-only context.
  size_t cached_groups() const;

  /// Bytes the group-memo arenas have handed out (bump allocations only;
  /// recycled chunks are not re-counted). A footprint gauge for tests
  /// and telemetry; always 0 on an evaluate-only context.
  size_t group_arena_bytes() const;

  /// Evicts every memoized group that contains any of `ids`, in one
  /// pass over the memo, returning how many entries were erased. The
  /// long-lived service calls this when subscriptions retire: ids are
  /// never reused (QuerySet is append-only), so entries mentioning a
  /// dead id can only ever be re-read by accident — dropping them bounds
  /// the memo's footprint under sustained churn instead of letting it
  /// grow with the total number of subscriptions ever seen. Correctness
  /// is unaffected (entries are a pure function of the group's ids).
  /// Thread-safe, but concurrent evaluators of a group containing a
  /// listed id may re-insert it; the service only evicts ids it already
  /// removed from every plan. An evaluate-only context holds nothing to
  /// evict and returns 0.
  size_t EvictGroupsContaining(const std::vector<QueryId>& ids) const;

 private:
  struct GroupHash {
    size_t operator()(const QueryGroup& g) const {
      uint64_t h = 1469598103934665603ULL;
      for (QueryId id : g) {
        h ^= id;
        h *= 1099511628211ULL;
      }
      return static_cast<size_t>(h);
    }
  };

  /// Group-memo shards: the hash picks the shard, the shard's mutex
  /// guards only its map. 16 shards keep contention negligible even with
  /// every pool worker missing the cache at once (profit-table build).
  ///
  /// Each shard's map draws its nodes and bucket arrays from a private
  /// bump arena: the memo makes millions of small same-shaped node
  /// allocations on the planning hot path, and the arena turns them into
  /// pointer bumps (with free-list recycling keeping the footprint at
  /// the live high-water mark under eviction churn). Only the allocator
  /// touches the arena, and every allocator call happens inside an
  /// insert/erase/clear made under `mu`, so the arena needs no lock of
  /// its own. An evaluate-only context never inserts, so its shards stay
  /// empty and their arenas never allocate.
  static constexpr size_t kGroupShards = 16;
  struct GroupShard {
    mutable std::mutex mu;
    Arena arena;
    using CacheAllocator =
        ArenaAllocator<std::pair<const QueryGroup, GroupStats>>;
    using Cache =
        std::unordered_map<QueryGroup, GroupStats, GroupHash,
                           std::equal_to<QueryGroup>, CacheAllocator>;
    Cache cache QSP_GUARDED_BY(mu){CacheAllocator(&arena)};
  };

  GroupStats Compute(const QueryGroup& group) const;
  /// Adds one merged query (region pieces, their estimated size, the
  /// members it serves) to `stats`: the arithmetic shared by the
  /// procedure path and the bounding-box path of Compute().
  void AddMergedQuery(std::span<const Rect> region, double merged_size,
                      const QueryGroup& members, GroupStats* stats) const;

  /// One slot per query id: the bits of its known size, or kUnknownSize.
  using SizeSlot = std::atomic<uint64_t>;
  /// A NaN bit pattern no estimator returns: "size not known yet".
  static constexpr uint64_t kUnknownSize = ~uint64_t{0};
  /// The slots sit in chunks that never move once published: chunk k
  /// holds the kFirstChunk << k ids from kFirstChunk * (2^k - 1) on, so
  /// kSizeChunks chunks cover every QueryId.
  static constexpr size_t kFirstChunk = 64;
  static constexpr size_t kSizeChunks = 27;
  static_assert(kFirstChunk * ((size_t{1} << kSizeChunks) - 1) >
                std::numeric_limits<QueryId>::max());

  /// The slot of `id`, whose chunk must be published.
  SizeSlot& SizeSlotOf(QueryId id) const;
  /// The locked part of Size(): reconciles the slots with the query set
  /// and computes a size that is not known yet.
  double SizeMiss(QueryId id) const;
  /// Brings the slots in line with queries_->size(): growth publishes
  /// chunks until they cover it, a shrink forgets every size and group.
  void SyncSizeSlots() const QSP_REQUIRES(size_mu_);

  const QuerySet* queries_;
  const SizeEstimator* estimator_;
  const MergeProcedure* procedure_;
  const GroupMemo memo_;
  /// procedure_->traits().region_is_bounding_box, read once.
  bool bounding_box_region_ = false;
  mutable std::mutex size_mu_;
  /// Owners of the published chunks, the first size_chunk_count_ of them.
  mutable std::array<std::unique_ptr<SizeSlot[]>, kSizeChunks>
      size_chunk_owners_ QSP_GUARDED_BY(size_mu_);
  mutable size_t size_chunk_count_ QSP_GUARDED_BY(size_mu_) = 0;
  /// The published chunks, read without the lock.
  mutable std::array<std::atomic<SizeSlot*>, kSizeChunks> size_chunks_{};
  /// The query-set size the slots were last brought in line with, stored
  /// after the chunks that cover it are published; a Size() call that
  /// sees another size takes the lock.
  mutable std::atomic<size_t> size_synced_{0};
  mutable std::array<GroupShard, kGroupShards> group_shards_;
  /// Entries erased by EvictGroupsContaining, folded back into
  /// groups_evaluated() so the effort metric stays monotone.
  mutable std::atomic<size_t> groups_evicted_{0};
  /// Groups computed by an evaluate-only context (its groups_evaluated()).
  mutable std::atomic<size_t> groups_computed_{0};

  // Memoization hit/miss counters of the default registry (ctx.*).
  // Resolved once at construction — null when telemetry was off then, so
  // the hot lookup paths pay a single null check when disabled.
  obs::Counter* size_hits_ = nullptr;
  obs::Counter* size_misses_ = nullptr;
  obs::Counter* group_hits_ = nullptr;
  obs::Counter* group_misses_ = nullptr;
};

}  // namespace qsp

#endif  // QSP_QUERY_MERGE_CONTEXT_H_
