#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

constexpr double kDomainSide = 1000.0;

// Fixed data-cluster centres (fractions of the domain side).
constexpr double kClusterCentres[5][2] = {
    {0.2, 0.2}, {0.8, 0.2}, {0.5, 0.5}, {0.2, 0.8}, {0.8, 0.8}};

constexpr double kClusteredFraction = 0.5;
// Cluster standard deviation as a fraction of the domain side.
constexpr double kClusterSpread = 0.03;
constexpr size_t kPayloadBytes = 32;

// Fixed subscription-cluster origins (fractions of the domain side). They
// sit between the data clusters, so a clustered subscription's answer
// comes from the uniform half of the data and the clusters' tails, not
// from a cluster core a thousand times denser.
constexpr double kQueryOrigins[2][2] = {{0.35, 0.65}, {0.65, 0.35}};

qsp::Rect Clamped(double cx, double cy, double w, double h) {
  const double x_lo = std::clamp(cx - w / 2, 0.0, kDomainSide);
  const double y_lo = std::clamp(cy - h / 2, 0.0, kDomainSide);
  const double x_hi = std::clamp(cx + w / 2, 0.0, kDomainSide);
  const double y_hi = std::clamp(cy + h / 2, 0.0, kDomainSide);
  return qsp::Rect(x_lo, y_lo, x_hi, y_hi);
}

}  // namespace

Rng::Rng(uint64_t seed, uint64_t stream) {
  uint64_t x = seed ^ (stream * 0xd1b54a32d192ed03ULL);
  for (uint64_t& s : s_) s = SplitMix(&x);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::Below(uint64_t n) { return Next() % n; }

double Rng::Normal(double mean, double stddev) {
  // 1 - U keeps the logarithm's argument in (0, 1].
  const double u1 = 1.0 - Uniform();
  const double u2 = Uniform();
  return mean + stddev * std::sqrt(-2.0 * std::log(u1)) *
                    std::cos(2.0 * M_PI * u2);
}

qsp::Rect Domain() { return qsp::Rect(0, 0, kDomainSide, kDomainSide); }

std::vector<RowInput> GenerateRows(size_t num_objects, uint64_t seed) {
  Rng rng(seed, /*stream=*/1);
  const double spread = kClusterSpread * kDomainSide;
  std::vector<RowInput> rows(num_objects);
  for (RowInput& row : rows) {
    if (rng.Bernoulli(kClusteredFraction)) {
      const auto& c = kClusterCentres[rng.Below(5)];
      row.x = std::clamp(rng.Normal(c[0] * kDomainSide, spread), 0.0,
                         kDomainSide);
      row.y = std::clamp(rng.Normal(c[1] * kDomainSide, spread), 0.0,
                         kDomainSide);
    } else {
      row.x = rng.Uniform(0.0, kDomainSide);
      row.y = rng.Uniform(0.0, kDomainSide);
    }
    row.payload.resize(kPayloadBytes);
    for (char& ch : row.payload) ch = static_cast<char>('a' + rng.Below(26));
  }
  return rows;
}

qsp::Table IngestRows(const std::vector<RowInput>& rows) {
  qsp::Table table(qsp::Schema::Geographic(/*payload_fields=*/1));
  for (const RowInput& row : rows) {
    std::vector<qsp::Value> values;
    values.reserve(3);
    values.emplace_back(row.x);
    values.emplace_back(row.y);
    values.emplace_back(row.payload);
    // Generated rows always match the geographic schema; a refusal would
    // be a program defect and shows up as a short table in the checks.
    qsp::Result<qsp::RowId> inserted = table.Insert(std::move(values));
    if (!inserted.ok()) break;
  }
  return table;
}

qsp::Rect DrawRect(const QueryShape& shape, size_t cluster_slot, Rng* rng) {
  double cx = 0.0;
  double cy = 0.0;
  if (rng->Bernoulli(shape.cf)) {
    const auto& o = kQueryOrigins[cluster_slot % 2];
    cx = rng->Normal(o[0] * kDomainSide, shape.df * kDomainSide);
    cy = rng->Normal(o[1] * kDomainSide, shape.df * kDomainSide);
  } else {
    cx = rng->Uniform(0.0, kDomainSide);
    cy = rng->Uniform(0.0, kDomainSide);
  }
  const double w = rng->Uniform(shape.min_extent, shape.max_extent) * kDomainSide;
  const double h = rng->Uniform(shape.min_extent, shape.max_extent) * kDomainSide;
  return Clamped(cx, cy, w, h);
}

std::vector<qsp::Rect> GenerateRects(const QueryShape& shape, size_t n,
                                     Rng* rng) {
  std::vector<qsp::Rect> rects;
  rects.reserve(n);
  for (size_t i = 0; i < n; ++i) rects.push_back(DrawRect(shape, i, rng));
  return rects;
}

std::vector<uint32_t> LocalityOwners(const std::vector<qsp::Rect>& rects,
                                     size_t num_clients) {
  std::vector<size_t> order(rects.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const qsp::Point ca = rects[a].Center();
    const qsp::Point cb = rects[b].Center();
    if (ca.x != cb.x) return ca.x < cb.x;
    return ca.y < cb.y;
  });
  std::vector<uint32_t> owner(rects.size(), 0);
  for (size_t i = 0; i < order.size(); ++i) {
    owner[order[i]] = static_cast<uint32_t>(i * num_clients / order.size());
  }
  return owner;
}

}  // namespace perfbench
