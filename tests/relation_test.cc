#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "relation/generator.h"
#include "relation/grid_index.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "relation/value.h"
#include "util/rng.h"

namespace qsp {
namespace {

Table MakeSmallTable() {
  Table table(Schema::Geographic(1));
  const double coords[][2] = {{1, 1}, {2, 3}, {5, 5}, {9, 9}, {5, 1}};
  for (const auto& c : coords) {
    auto r = table.Insert({c[0], c[1], std::string("obj")});
    EXPECT_TRUE(r.ok());
  }
  return table;
}

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, GeographicSchemaShape) {
  Schema s = Schema::Geographic(2);
  ASSERT_EQ(s.num_fields(), 4u);
  EXPECT_EQ(s.field(0).name, "longitude");
  EXPECT_EQ(s.field(0).type, ValueType::kDouble);
  EXPECT_EQ(s.field(1).name, "latitude");
  EXPECT_EQ(s.field(2).name, "attr0");
  EXPECT_EQ(s.field(3).name, "attr1");
}

TEST(SchemaTest, IndexOf) {
  Schema s = Schema::Geographic(1);
  EXPECT_EQ(s.IndexOf("latitude"), 1u);
  EXPECT_EQ(s.IndexOf("nope"), std::nullopt);
}

TEST(SchemaTest, ValidateArity) {
  Schema s = Schema::Geographic(0);
  EXPECT_TRUE(s.Validate({1.0, 2.0}).ok());
  EXPECT_FALSE(s.Validate({1.0}).ok());
  EXPECT_FALSE(s.Validate({1.0, 2.0, 3.0}).ok());
}

TEST(SchemaTest, ValidateTypes) {
  Schema s = Schema::Geographic(1);
  EXPECT_TRUE(s.Validate({1.0, 2.0, std::string("x")}).ok());
  EXPECT_FALSE(s.Validate({int64_t{1}, 2.0, std::string("x")}).ok());
  EXPECT_FALSE(s.Validate({1.0, 2.0, 3.0}).ok());
}

TEST(SchemaTest, ToString) {
  EXPECT_EQ(Schema::Geographic(0).ToString(),
            "longitude:DOUBLE, latitude:DOUBLE");
}

// ----------------------------------------------------------------- Value

TEST(ValueTest, TypeOfAndWireSize) {
  EXPECT_EQ(TypeOf(Value{int64_t{5}}), ValueType::kInt64);
  EXPECT_EQ(TypeOf(Value{2.5}), ValueType::kDouble);
  EXPECT_EQ(TypeOf(Value{std::string("ab")}), ValueType::kString);
  EXPECT_EQ(WireSize(Value{int64_t{5}}), 8u);
  EXPECT_EQ(WireSize(Value{2.5}), 8u);
  EXPECT_EQ(WireSize(Value{std::string("ab")}), 6u);
}

// ----------------------------------------------------------------- Table

TEST(TableTest, InsertAndAccess) {
  Table table = MakeSmallTable();
  EXPECT_EQ(table.num_rows(), 5u);
  EXPECT_EQ(table.PositionOf(0).x, 1.0);
  EXPECT_EQ(table.PositionOf(2).y, 5.0);
}

TEST(TableTest, InsertRejectsWrongArity) {
  Table table(Schema::Geographic(0));
  EXPECT_FALSE(table.Insert({1.0}).ok());
}

TEST(TableTest, InsertRejectsNonPositionalSchema) {
  Table table(Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  EXPECT_FALSE(table.Insert({int64_t{1}, int64_t{2}}).ok());
}

TEST(TableTest, ScanRangeClosedBounds) {
  Table table = MakeSmallTable();
  EXPECT_EQ(table.ScanRange(Rect(1, 1, 5, 5)),
            (std::vector<RowId>{0, 1, 2, 4}));
  EXPECT_EQ(table.ScanRange(Rect(9, 9, 9, 9)), (std::vector<RowId>{3}));
  EXPECT_TRUE(table.ScanRange(Rect(100, 100, 200, 200)).empty());
  EXPECT_TRUE(table.ScanRange(Rect::Empty()).empty());
}

TEST(TableTest, CountRangeMatchesScan) {
  Table table = MakeSmallTable();
  const Rect r(0, 0, 6, 6);
  EXPECT_EQ(table.CountRange(r), table.ScanRange(r).size());
}

TEST(TableTest, WireSizes) {
  Table table = MakeSmallTable();
  // 2 doubles (16) + "obj" string (3+4).
  EXPECT_EQ(table.RowWireSize(0), 23u);
  EXPECT_DOUBLE_EQ(table.MeanRowWireSize(), 23.0);
}

TEST(TableTest, InsertRejectsNonFinitePositions) {
  Table table(Schema::Geographic(0));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [x, y] : {std::pair{nan, 1.0}, std::pair{1.0, nan},
                             std::pair{inf, 1.0}, std::pair{1.0, -inf}}) {
    const auto inserted = table.Insert({x, y});
    ASSERT_FALSE(inserted.ok());
    EXPECT_EQ(inserted.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_TRUE(table.Insert({1.0, 1.0}).ok());
}

/// Sum of WireSize over a row's values.
size_t SumWireSize(const std::vector<Value>& row) {
  size_t bytes = 0;
  for (const Value& v : row) bytes += WireSize(v);
  return bytes;
}

TEST(TableTest, RowsRoundTripAcrossBlockBoundary) {
  // Positions, then INT64, DOUBLE and two STRING columns of varying
  // width, on both sides of the first block boundary.
  Table table(Schema({{"longitude", ValueType::kDouble},
                      {"latitude", ValueType::kDouble},
                      {"count", ValueType::kInt64},
                      {"weight", ValueType::kDouble},
                      {"name", ValueType::kString},
                      {"note", ValueType::kString}}));
  Rng rng(17);
  std::vector<std::vector<Value>> expected;
  const size_t n = Table::kBlockRows + 5;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> row = {
        rng.UniformDouble(-10, 10), rng.UniformDouble(-10, 10),
        static_cast<int64_t>(rng.Next()), rng.Normal(0, 1e6),
        std::string(static_cast<size_t>(rng.UniformInt(0, 40)), 'a'),
        std::string(i % 7 == 0 ? "" : "note " + std::to_string(i))};
    ASSERT_TRUE(table.Insert(row).ok());
    expected.push_back(std::move(row));
  }
  ASSERT_EQ(table.num_rows(), n);
  size_t total = 0;
  for (RowId id = 0; id < n; ++id) {
    ASSERT_EQ(table.row(id), expected[id]) << "row " << id;
    EXPECT_EQ(table.RowWireSize(id), SumWireSize(expected[id])) << id;
    EXPECT_EQ(table.PositionOf(id).x, std::get<double>(expected[id][0]));
    EXPECT_EQ(table.PositionOf(id).y, std::get<double>(expected[id][1]));
    total += SumWireSize(expected[id]);
  }
  EXPECT_DOUBLE_EQ(table.MeanRowWireSize(),
                   static_cast<double>(total) / static_cast<double>(n));
}

TEST(TableTest, WideFirstRowGrowsItsBlock) {
  // A block sizes its cell storage from its first row, up to a cap; a
  // 2 MiB first row must neither reserve 2,048 times that nor lose cells.
  Table table(Schema::Geographic(1));
  const std::vector<std::string> payloads = {std::string(2 << 20, 'w'), "a",
                                             std::string(3 << 20, 'v'), ""};
  for (size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_TRUE(table.Insert({static_cast<double>(i), 2.0, payloads[i]}).ok());
  }
  for (RowId id = 0; id < payloads.size(); ++id) {
    EXPECT_EQ(std::get<std::string>(table.row(id)[2]), payloads[id]);
    EXPECT_EQ(table.RowWireSize(id), 16 + 4 + payloads[id].size());
  }
}

TEST(TableTest, PositionOnlyRowsAcrossBlockBoundary) {
  Table table(Schema::Geographic(0));
  const size_t n = Table::kBlockRows + 1;
  for (size_t i = 0; i < n; ++i) {
    const auto v = static_cast<double>(i);
    ASSERT_TRUE(table.Insert({v, -v}).ok());
  }
  for (RowId id : {RowId{0}, RowId{Table::kBlockRows - 1},
                   RowId{Table::kBlockRows}}) {
    const auto v = static_cast<double>(id);
    EXPECT_EQ(table.row(id), (std::vector<Value>{v, -v}));
    EXPECT_EQ(table.RowWireSize(id), 16u);
  }
  EXPECT_DOUBLE_EQ(table.MeanRowWireSize(), 16.0);
}

// ------------------------------------------------------------- GridIndex

TEST(GridIndexTest, MatchesFullScanOnSmallTable) {
  Table table = MakeSmallTable();
  GridIndex index(table, Rect(0, 0, 10, 10), 4, 4);
  const Rect queries[] = {Rect(0, 0, 10, 10), Rect(1, 1, 5, 5),
                          Rect(4, 0, 6, 2),   Rect(8.5, 8.5, 9.5, 9.5),
                          Rect(3, 3, 3, 3),   Rect::Empty()};
  for (const Rect& q : queries) {
    EXPECT_EQ(index.Query(q), table.ScanRange(q)) << q.ToString();
    EXPECT_EQ(index.Count(q), table.CountRange(q)) << q.ToString();
  }
}

TEST(GridIndexTest, FarOutAndInfiniteRectanglesMatchScan) {
  // Rectangle bounds ~10^9 domain widths out, or infinite, used to
  // overflow the cell computation and see only cell 0.
  Rng rng(8);
  TableGeneratorConfig config;
  config.domain = Rect(0, 0, 1000, 1000);
  config.num_objects = 10000;
  config.payload_fields = 0;
  Table table = GenerateTable(config, &rng);
  GridIndex index(table, config.domain);
  const double inf = std::numeric_limits<double>::infinity();
  for (const Rect& q : {Rect(-1e12, -1e12, 1e12, 1e12), Rect(0, 0, 1e11, 1e11),
                        Rect(-inf, -inf, inf, inf)}) {
    EXPECT_EQ(index.Query(q), table.ScanRange(q)) << q.ToString();
    EXPECT_EQ(index.Count(q), table.CountRange(q)) << q.ToString();
    EXPECT_EQ(index.Count(q), 10000u) << q.ToString();
  }
}

TEST(GridIndexTest, FarOutRowIsFound) {
  Rng rng(9);
  TableGeneratorConfig config;
  config.domain = Rect(0, 0, 1000, 1000);
  config.num_objects = 10000;
  config.payload_fields = 0;
  Table table = GenerateTable(config, &rng);
  ASSERT_TRUE(table.Insert({1e12, 500.0}).ok());
  GridIndex index(table, config.domain);
  const Rect q(900, 0, 2e12, 1000);
  const std::vector<RowId> rows = index.Query(q);
  EXPECT_EQ(rows, table.ScanRange(q));
  EXPECT_EQ(index.Count(q), table.CountRange(q));
  EXPECT_EQ(rows.back(), 10000u);
}

TEST(GridIndexTest, RowsOutsideDomainAreClamped) {
  Table table(Schema::Geographic(0));
  ASSERT_TRUE(table.Insert({-5.0, -5.0}).ok());
  ASSERT_TRUE(table.Insert({15.0, 15.0}).ok());
  GridIndex index(table, Rect(0, 0, 10, 10), 4, 4);
  // The rows exist in boundary buckets; querying beyond the domain edge
  // must still find them because containment is re-checked per row.
  EXPECT_EQ(index.Query(Rect(-10, -10, 20, 20)).size(), 2u);
  EXPECT_TRUE(index.Query(Rect(0, 0, 10, 10)).empty());
}

/// Property: index results equal full scans on random data and queries,
/// including rows and rectangles on cell edges, rectangles covering whole
/// cells exactly, point and line rectangles, duplicate positions and rows
/// outside the domain.
class GridIndexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GridIndexProperty, EquivalentToScan) {
  Rng rng(GetParam());
  TableGeneratorConfig config;
  config.domain = Rect(0, 0, 100, 100);
  config.num_objects = 500;
  config.clustered_fraction = 0.5;
  config.num_clusters = 3;
  config.payload_fields = 0;
  Table table = GenerateTable(config, &rng);
  // The 8 x 8 grid below has cell edges at multiples of 12.5.
  constexpr double kEdge = 12.5;
  auto edge = [&rng] {
    return kEdge * static_cast<double>(rng.UniformInt(0, 8));
  };
  for (int i = 0; i < 40; ++i) {
    const double x = edge();
    const double y = i % 2 == 0 ? edge() : rng.UniformDouble(0, 100);
    ASSERT_TRUE(table.Insert({x, y}).ok());
    ASSERT_TRUE(table.Insert({x, y}).ok());  // Duplicate position.
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(table.Insert({rng.UniformDouble(-50, 150),
                              rng.UniformDouble(-50, 150)})
                    .ok());
  }
  GridIndex index(table, config.domain, 8, 8);

  std::vector<Rect> queries;
  for (int i = 0; i < 50; ++i) {
    const double x = rng.UniformDouble(0, 90);
    const double y = rng.UniformDouble(0, 90);
    queries.emplace_back(x, y, x + rng.UniformDouble(0, 30),
                         y + rng.UniformDouble(0, 30));
  }
  for (int i = 0; i < 30; ++i) {
    // Bounds on cell edges; some cover whole cells exactly.
    const double x0 = edge(), x1 = edge(), y0 = edge(), y1 = edge();
    queries.emplace_back(std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
                         std::max(y0, y1));
  }
  for (int c = 0; c < 8; ++c) {
    const double lo = kEdge * c;
    queries.emplace_back(lo, lo, lo + kEdge, lo + kEdge);
  }
  for (int i = 0; i < 20; ++i) {
    // Point and line rectangles, at row positions and on cell edges.
    const Point p =
        table.PositionOf(static_cast<RowId>(rng.UniformInt(
            0, static_cast<int64_t>(table.num_rows()) - 1)));
    queries.emplace_back(p.x, p.y, p.x, p.y);
    queries.emplace_back(p.x, 0, p.x, 100);
    queries.emplace_back(0, p.y, 100, p.y);
    const double e = edge();
    queries.emplace_back(e, e, e, e);
    queries.emplace_back(e, -20, e, 120);
  }
  for (int i = 0; i < 20; ++i) {
    // Rectangles reaching outside the domain.
    const double x = rng.UniformDouble(-60, 140);
    const double y = rng.UniformDouble(-60, 140);
    queries.emplace_back(x, y, x + rng.UniformDouble(0, 80),
                         y + rng.UniformDouble(0, 80));
  }
  for (const Rect& q : queries) {
    ASSERT_EQ(index.Query(q), table.ScanRange(q)) << q.ToString();
    ASSERT_EQ(index.Count(q), table.CountRange(q)) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridIndexProperty,
                         ::testing::Values(11, 22, 33, 44));

Table ClusteredTable(uint64_t seed, size_t n) {
  Rng rng(seed);
  TableGeneratorConfig config;
  config.domain = Rect(0, 0, 100, 100);
  config.num_objects = n;
  config.clustered_fraction = 0.6;
  config.num_clusters = 3;
  config.payload_fields = 0;
  return GenerateTable(config, &rng);
}

TEST(GridIndexTest, EmptyTable) {
  Table table(Schema::Geographic(0));
  GridIndex index(table, Rect(0, 0, 100, 100));
  EXPECT_TRUE(index.Query(Rect(0, 0, 100, 100)).empty());
  EXPECT_EQ(index.Count(Rect(0, 0, 100, 100)), 0u);
}

TEST(GridIndexTest, SingleRow) {
  Table table(Schema::Geographic(0));
  ASSERT_TRUE(table.Insert({5.0, 5.0}).ok());
  GridIndex index(table, Rect(0, 0, 100, 100));
  EXPECT_EQ(index.Query(Rect(0, 0, 10, 10)), (std::vector<RowId>{0}));
  EXPECT_EQ(index.Count(Rect(0, 0, 10, 10)), 1u);
  EXPECT_TRUE(index.Query(Rect(6, 6, 10, 10)).empty());
  EXPECT_EQ(index.Count(Rect(6, 6, 10, 10)), 0u);
}

TEST(GridIndexTest, EmptyQueryRect) {
  Table table = ClusteredTable(1, 100);
  GridIndex index(table, Rect(0, 0, 100, 100));
  EXPECT_TRUE(index.Query(Rect::Empty()).empty());
  EXPECT_EQ(index.Count(Rect::Empty()), 0u);
}

TEST(GridIndexTest, FullDomainReturnsEverything) {
  Table table = ClusteredTable(3, 500);
  GridIndex index(table, Rect(0, 0, 100, 100));
  EXPECT_EQ(index.Query(Rect(0, 0, 100, 100)).size(), 500u);
  EXPECT_EQ(index.Count(Rect(0, 0, 100, 100)), 500u);
}

TEST(GridIndexTest, WholeCellCountIsExact) {
  // A rect covering most of the domain takes most cells whole, without
  // a per-row test; compare against the scan.
  Table table = ClusteredTable(4, 2000);
  GridIndex index(table, Rect(0, 0, 100, 100), 8, 8);
  const Rect big(5, 5, 95, 95);
  EXPECT_EQ(index.Count(big), table.CountRange(big));
  EXPECT_EQ(index.Query(big), table.ScanRange(big));
}

TEST(GridIndexTest, DuplicatePositionsAllFound) {
  Table table(Schema::Geographic(0));
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(table.Insert({5.0, 5.0}).ok());
  GridIndex index(table, Rect(0, 0, 10, 10), 4, 4);
  EXPECT_EQ(index.Query(Rect(5, 5, 5, 5)).size(), 20u);
  EXPECT_EQ(index.Count(Rect(5, 5, 5, 5)), 20u);
}

// Query orders what it gathers from the cells either through a bitmap
// over the answer's id span or by sorting (GridIndex::OrdersByBitmap).
// The cases below force each path and compare with Table::ScanRange.

/// Which ordering path Query takes for `answer` (ascending, non-empty).
bool TakesBitmap(const std::vector<RowId>& answer) {
  return GridIndex::OrdersByBitmap(answer.front(), answer.back(),
                                   answer.size());
}

TEST(GridIndexTest, LargeTableTakesBothOrderingPaths) {
  // 10^5 uniform rows: a tiny rectangle holds a few ids spread over the
  // whole id range (sorted), a large one thousands (bitmap).
  Rng rng(41);
  TableGeneratorConfig config;
  config.domain = Rect(0, 0, 1000, 1000);
  config.num_objects = 100000;
  config.payload_fields = 0;
  Table table = GenerateTable(config, &rng);
  GridIndex index(table, config.domain);
  int sorted = 0;
  int bitmap = 0;
  for (int i = 0; i < 40; ++i) {
    const double side = i % 2 == 0 ? rng.UniformDouble(1, 8)
                                   : rng.UniformDouble(100, 600);
    const double x = rng.UniformDouble(-20, 1000 - side / 2);
    const double y = rng.UniformDouble(-20, 1000 - side / 2);
    const Rect q(x, y, x + side, y + side);
    const std::vector<RowId> expected = table.ScanRange(q);
    ASSERT_EQ(index.Query(q), expected) << q.ToString();
    ASSERT_EQ(index.Count(q), expected.size()) << q.ToString();
    if (expected.empty()) continue;
    ++(TakesBitmap(expected) ? bitmap : sorted);
  }
  EXPECT_GE(sorted, 5);
  EXPECT_GE(bitmap, 5);
}

/// A 4 x 4 grid over [0, 100]^2 (cell edge 25) holding `n` rows dealt
/// round-robin over its 16 cells, so consecutive ids sit in different
/// cells and every multi-cell answer arrives as interleaved runs. The
/// m-th row of a cell lies at a distinct point of [1, 23]^2 inside it
/// (an irrational rotation per axis), so the cells' boxes span most of
/// each cell and no two rows share a position.
Table DealtTable(size_t n) {
  Table table(Schema::Geographic(0));
  for (size_t k = 0; k < n; ++k) {
    const size_t cell = k % 16;
    const auto m = static_cast<double>(k / 16);
    EXPECT_TRUE(
        table
            .Insert({25.0 * static_cast<double>(cell % 4) + 1 +
                         22 * std::fmod(m * 0.6180339887, 1.0),
                     25.0 * static_cast<double>(cell / 4) + 1 +
                         22 * std::fmod(m * 0.7548776662, 1.0)})
            .ok());
  }
  return table;
}

TEST(GridIndexTest, WholeCellPartialCellSingleRowAndEmptyAnswersMatchScan) {
  Table table = DealtTable(4000);
  GridIndex index(table, Rect(0, 0, 100, 100), 4, 4);
  const Point one = table.PositionOf(1234);
  const Rect whole(25, 25, 75, 75);  // holds the boxes of 4 cells
  const Rect partial(10, 10, 37, 37);  // cuts the boxes of the 4 it meets
  const Rect single(one.x, one.y, one.x, one.y);
  const Rect none(5.123456, 0, 5.123456, 80);  // meets 4 boxes, no row
  const std::pair<const char*, Rect> cases[] = {
      {"whole cells", whole},
      {"one whole cell", Rect(0, 0, 25, 25)},
      {"partial cells", partial},
      {"one partial cell", Rect(3, 3, 12, 12)},
      {"single row", single},
      {"no rows, cells met", none},
      {"no rows, empty rect", Rect::Empty()},
  };
  for (const auto& [name, rect] : cases) {
    const std::vector<RowId> expected = table.ScanRange(rect);
    EXPECT_EQ(index.Query(rect), expected) << name;
    EXPECT_EQ(index.Count(rect), expected.size()) << name;
  }
  EXPECT_EQ(table.CountRange(whole), 1000u);
  EXPECT_TRUE(TakesBitmap(table.ScanRange(whole)));
  EXPECT_TRUE(TakesBitmap(table.ScanRange(partial)));
  EXPECT_EQ(table.ScanRange(single), (std::vector<RowId>{1234}));
  EXPECT_TRUE(table.ScanRange(none).empty());
}

/// A table of `n` rows where exactly the rows in `inside` (ascending)
/// lie in [0, 50]^2, dealt over its four cells of a 4 x 4 grid on
/// [0, 100]^2; every other row lies in [60, 100]^2.
Table TableWithAnswer(size_t n, const std::vector<RowId>& inside) {
  Table table(Schema::Geographic(0));
  size_t next = 0;
  for (size_t k = 0; k < n; ++k) {
    const auto v = static_cast<double>(k % 37);
    if (next < inside.size() && inside[next] == k) {
      const size_t cell = next++ % 4;
      EXPECT_TRUE(table
                      .Insert({25.0 * static_cast<double>(cell % 2) + 1 + v / 2,
                               25.0 * static_cast<double>(cell / 2) + 1 + v / 2})
                      .ok());
    } else {
      EXPECT_TRUE(table.Insert({60 + v, 60 + v}).ok());
    }
  }
  return table;
}

TEST(GridIndexTest, AnswersAtTheIdExtremesMatchScan) {
  // Answers holding the table's first and last ids, spans of exactly one
  // and two bitmap words, and two ids either side of the bitmap's limit
  // (16 words for two ids: a span of 1,023 takes it, 1,024 does not).
  constexpr size_t kRows = 2000;
  const Rect area(0, 0, 50, 50);
  std::vector<std::vector<RowId>> answers = {
      {0},        {1999},         {0, 63},       {0, 64},
      {63, 64},   {0, 1023},      {0, 1024},     {0, 1999},
      {1, 1998},  {0, 1000, 1999}, {0, 1, 2, 3}, {1995, 1996, 1997, 1998, 1999},
      {127, 128, 191, 192}};
  std::vector<RowId> all;
  std::vector<RowId> odd;
  for (RowId id = 0; id < kRows; ++id) {
    all.push_back(id);
    if (id % 2 == 1) odd.push_back(id);
  }
  answers.push_back(all);
  answers.push_back(odd);
  for (const std::vector<RowId>& answer : answers) {
    Table table = TableWithAnswer(kRows, answer);
    GridIndex index(table, Rect(0, 0, 100, 100), 4, 4);
    ASSERT_EQ(table.ScanRange(area), answer);
    EXPECT_EQ(index.Query(area), answer)
        << answer.size() << " ids from " << answer.front();
    EXPECT_EQ(index.Count(area), answer.size());
  }
  EXPECT_TRUE(TakesBitmap({0, 1023}));
  EXPECT_FALSE(TakesBitmap({0, 1024}));
  EXPECT_FALSE(TakesBitmap({0, 1999}));
  EXPECT_FALSE(TakesBitmap({0, 1000, 1999}));
  EXPECT_TRUE(TakesBitmap({1999}));
  EXPECT_TRUE(TakesBitmap(all));
  EXPECT_TRUE(TakesBitmap(odd));
}

TEST(GridIndexTest, ConcurrentQueriesOnOneIndexMatchScan) {
  // Channels evaluate their messages on one index at once; each thread's
  // bitmap buffer is its own.
  Rng rng(43);
  TableGeneratorConfig config;
  config.domain = Rect(0, 0, 1000, 1000);
  config.num_objects = 20000;
  config.clustered_fraction = 0.5;
  config.payload_fields = 0;
  Table table = GenerateTable(config, &rng);
  GridIndex index(table, config.domain);
  std::vector<Rect> queries;
  for (int i = 0; i < 24; ++i) {
    const double side = i % 3 == 0 ? rng.UniformDouble(1, 10)
                                   : rng.UniformDouble(50, 400);
    const double x = rng.UniformDouble(0, 1000 - side);
    const double y = rng.UniformDouble(0, 1000 - side);
    queries.emplace_back(x, y, x + side, y + side);
  }
  std::vector<std::vector<RowId>> expected;
  for (const Rect& q : queries) expected.push_back(table.ScanRange(q));
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<RowId>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the queries from its own offset, several times.
      for (size_t pass = 0; pass < 3 * queries.size(); ++pass) {
        const size_t i = (pass + static_cast<size_t>(t) * 5) % queries.size();
        std::vector<RowId> answer = index.Query(queries[i]);
        if (pass < queries.size()) {
          got[t].push_back(std::move(answer));
        } else if (answer != expected[i]) {
          got[t].push_back({});  // a later pass disagreed: fail below
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), queries.size()) << "thread " << t;
    for (size_t pass = 0; pass < queries.size(); ++pass) {
      const size_t i = (pass + static_cast<size_t>(t) * 5) % queries.size();
      EXPECT_EQ(got[t][pass], expected[i]) << "thread " << t << " query " << i;
    }
  }
}

/// Property: Query and Count agree with the full scan on clustered data
/// at every grid resolution from one cell (each query reads the whole
/// table) to 64 x 64 (most cells hold a handful of rows).
class GridIndexScanEquivalence
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(GridIndexScanEquivalence, MatchesScan) {
  const uint64_t seed = std::get<0>(GetParam());
  const int cells = std::get<1>(GetParam());
  Table table = ClusteredTable(seed, 800);
  GridIndex index(table, Rect(0, 0, 100, 100), cells, cells);

  Rng rng(seed ^ 0xFEED);
  for (int i = 0; i < 40; ++i) {
    const double x = rng.UniformDouble(-10, 95);
    const double y = rng.UniformDouble(-10, 95);
    const Rect q(x, y, x + rng.UniformDouble(0, 40),
                 y + rng.UniformDouble(0, 40));
    const std::vector<RowId> scan = table.ScanRange(q);
    ASSERT_EQ(index.Query(q), scan) << q.ToString() << " cells " << cells;
    ASSERT_EQ(index.Count(q), scan.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndCells, GridIndexScanEquivalence,
    ::testing::Combine(::testing::Values(11, 22, 33),
                       ::testing::Values(1, 4, 16, 64)));

// ------------------------------------------------------------- Generator

TEST(GeneratorTest, ProducesRequestedRows) {
  Rng rng(5);
  TableGeneratorConfig config;
  config.num_objects = 1000;
  config.payload_fields = 2;
  config.payload_bytes = 8;
  Table table = GenerateTable(config, &rng);
  EXPECT_EQ(table.num_rows(), 1000u);
  EXPECT_EQ(table.schema().num_fields(), 4u);
}

TEST(GeneratorTest, AllPointsInsideDomain) {
  Rng rng(6);
  TableGeneratorConfig config;
  config.domain = Rect(10, 20, 30, 40);
  config.num_objects = 2000;
  config.clustered_fraction = 0.8;
  Table table = GenerateTable(config, &rng);
  for (RowId id = 0; id < table.num_rows(); ++id) {
    EXPECT_TRUE(config.domain.Contains(table.PositionOf(id)));
  }
}

TEST(GeneratorTest, DeterministicInSeed) {
  TableGeneratorConfig config;
  config.num_objects = 50;
  Rng rng1(77), rng2(77);
  Table t1 = GenerateTable(config, &rng1);
  Table t2 = GenerateTable(config, &rng2);
  ASSERT_EQ(t1.num_rows(), t2.num_rows());
  for (RowId id = 0; id < t1.num_rows(); ++id) {
    EXPECT_EQ(t1.PositionOf(id).x, t2.PositionOf(id).x);
    EXPECT_EQ(t1.PositionOf(id).y, t2.PositionOf(id).y);
  }
}

TEST(GeneratorTest, ClusteredDataIsDenserNearCenters) {
  // With full clustering and small spread, the average pairwise distance
  // is far below the uniform expectation.
  TableGeneratorConfig clustered;
  clustered.num_objects = 400;
  clustered.clustered_fraction = 1.0;
  clustered.num_clusters = 2;
  clustered.cluster_spread = 0.01;
  TableGeneratorConfig uniform = clustered;
  uniform.clustered_fraction = 0.0;

  auto mean_min_neighbor = [](const Table& t) {
    double total = 0;
    for (RowId i = 0; i < t.num_rows(); ++i) {
      double best = 1e18;
      for (RowId j = 0; j < t.num_rows(); ++j) {
        if (i == j) continue;
        const Point a = t.PositionOf(i), b = t.PositionOf(j);
        const double d2 =
            (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y);
        best = std::min(best, d2);
      }
      total += std::sqrt(best);
    }
    return total / static_cast<double>(t.num_rows());
  };

  Rng rng1(9), rng2(9);
  const double clustered_nn = mean_min_neighbor(GenerateTable(clustered, &rng1));
  const double uniform_nn = mean_min_neighbor(GenerateTable(uniform, &rng2));
  EXPECT_LT(clustered_nn, uniform_nn * 0.5);
}

}  // namespace
}  // namespace qsp
