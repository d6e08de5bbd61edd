// Failure injection for the IO layer and API preconditions: malformed and
// truncated inputs must fail loudly — the aborting read_* wrappers via
// AGG_CHECK, the try_read_* readers via typed IoError — and never load
// garbage. The fuzz section below drives a seeded mutation loop over all
// three formats through the typed readers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "api/algorithms.h"
#include "api/graph_api.h"
#include "common/prng.h"
#include "graph/io.h"

namespace {

class IoFailureTest : public ::testing::Test {
 protected:
  std::string write_file(const char* name, const std::string& content) {
    const auto p = (std::filesystem::temp_directory_path() / name).string();
    std::ofstream out(p, std::ios::binary);
    out << content;
    cleanup_.push_back(p);
    return p;
  }
  void TearDown() override {
    for (const auto& p : cleanup_) std::remove(p.c_str());
  }
  std::vector<std::string> cleanup_;
};

using IoFailureDeathTest = IoFailureTest;

TEST_F(IoFailureDeathTest, MissingFileAborts) {
  EXPECT_DEATH(graph::read_dimacs("/nonexistent/path.gr"), "nonexistent");
}

TEST_F(IoFailureDeathTest, DimacsMalformedProblemLine) {
  const auto p = write_file("bad1.gr", "p sp oops\n");
  EXPECT_DEATH(graph::read_dimacs(p), "malformed DIMACS problem line");
}

TEST_F(IoFailureDeathTest, DimacsArcCountMismatch) {
  const auto p = write_file("bad2.gr", "p sp 3 2\na 1 2 5\n");
  EXPECT_DEATH(graph::read_dimacs(p), "arc count mismatch");
}

TEST_F(IoFailureDeathTest, DimacsNodeIdOutOfRange) {
  const auto p = write_file("bad3.gr", "p sp 2 1\na 1 9 5\n");
  EXPECT_DEATH(graph::read_dimacs(p), "");
}

TEST_F(IoFailureDeathTest, SnapMalformedLine) {
  const auto p = write_file("bad4.txt", "0\t1\nnot numbers\n");
  EXPECT_DEATH(graph::read_snap_edgelist(p), "malformed SNAP edge line");
}

TEST_F(IoFailureDeathTest, BinaryBadMagic) {
  const auto p = write_file("bad5.agg", "XXXXXXXXsome random bytes beyond");
  EXPECT_DEATH(graph::read_binary(p), "bad magic");
}

TEST_F(IoFailureDeathTest, BinaryTruncated) {
  // Valid magic, then a header promising more data than the file holds.
  std::string content = "AGGCSR01";
  const std::uint64_t n = 1000, m = 1000, w = 0;
  content.append(reinterpret_cast<const char*>(&n), 8);
  content.append(reinterpret_cast<const char*>(&m), 8);
  content.append(reinterpret_cast<const char*>(&w), 8);
  content.append(16, '\0');  // far short of (n+1 + m) * 4 bytes
  const auto p = write_file("bad6.agg", content);
  EXPECT_DEATH(graph::read_binary(p), "");
}

TEST_F(IoFailureTest, DimacsCommentsAndBlankLinesIgnored) {
  const auto p = write_file("ok.gr",
                            "c comment line\n\np sp 2 1\nc another\na 1 2 7\n");
  const auto g = graph::read_dimacs(p);
  EXPECT_EQ(g.num_nodes, 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.weights[0], 7u);
}

TEST_F(IoFailureTest, SnapCommentsIgnored) {
  const auto p = write_file("ok.txt", "# Nodes: 2\n0\t1\n");
  const auto g = graph::read_snap_edgelist(p);
  EXPECT_EQ(g.num_nodes, 2u);
  EXPECT_EQ(g.num_edges(), 1u);
}

// ---- typed (non-aborting) readers --------------------------------------------

using IoTypedErrorTest = IoFailureTest;

TEST_F(IoTypedErrorTest, MissingFileIsOpenFailed) {
  const auto r = graph::try_read_dimacs("/nonexistent/path.gr");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error.kind, graph::IoErrorKind::open_failed);
}

TEST_F(IoTypedErrorTest, DimacsCorpusMapsToKinds) {
  struct Case {
    const char* content;
    graph::IoErrorKind kind;
  };
  const Case cases[] = {
      {"p sp oops\n", graph::IoErrorKind::bad_header},
      {"a 1 2 3\n", graph::IoErrorKind::bad_header},  // arc before header
      {"", graph::IoErrorKind::bad_header},           // no header at all
      {"p sp 3 2\na 1 2 5\n", graph::IoErrorKind::count_mismatch},
      {"p sp 2 1\na 1 9 5\n", graph::IoErrorKind::bad_record},
      {"p sp 2 1\na one two 5\n", graph::IoErrorKind::bad_record},
      {"p sp 2 1\na 1 2 99999999999\n", graph::IoErrorKind::overflow},
      {"p sp 99999999999 1\na 1 2 5\n", graph::IoErrorKind::overflow},
  };
  int i = 0;
  for (const Case& c : cases) {
    const auto p = write_file(("typed" + std::to_string(i++) + ".gr").c_str(),
                              c.content);
    const auto r = graph::try_read_dimacs(p);
    ASSERT_FALSE(r.ok()) << c.content;
    EXPECT_EQ(r.error.kind, c.kind)
        << c.content << " -> " << graph::io_error_kind_name(r.error.kind)
        << " (" << r.error.message << ")";
    EXPECT_FALSE(r.error.message.empty());
  }
}

TEST_F(IoTypedErrorTest, SnapCorpusMapsToKinds) {
  const auto bad = write_file("typed_bad.txt", "0\t1\nnot numbers\n");
  auto r = graph::try_read_snap_edgelist(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.kind, graph::IoErrorKind::bad_record);

  const auto over = write_file("typed_over.txt", "0\t123456789123456789\n");
  r = graph::try_read_snap_edgelist(over);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.kind, graph::IoErrorKind::overflow);

  const auto ok = write_file("typed_ok.txt", "# header\n0\t1\n1\t0\n");
  r = graph::try_read_snap_edgelist(ok);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.graph.num_nodes, 2u);
}

TEST_F(IoTypedErrorTest, BinaryCorpusMapsToKinds) {
  auto header = [](std::uint64_t n, std::uint64_t m, std::uint64_t w) {
    std::string s = "AGGCSR01";
    s.append(reinterpret_cast<const char*>(&n), 8);
    s.append(reinterpret_cast<const char*>(&m), 8);
    s.append(reinterpret_cast<const char*>(&w), 8);
    return s;
  };
  struct Case {
    std::string content;
    graph::IoErrorKind kind;
  };
  const Case cases[] = {
      {"XX", graph::IoErrorKind::truncated},
      {"XXXXXXXXjunk", graph::IoErrorKind::bad_magic},
      {"AGGCSR01\x01", graph::IoErrorKind::truncated},
      // Header promises more data than the file holds.
      {header(1000, 1000, 0) + std::string(16, '\0'),
       graph::IoErrorKind::truncated},
      // Absurd counts must be rejected before any allocation is sized.
      {header(0xffffffffffffffffull, 8, 0), graph::IoErrorKind::overflow},
      {header(8, 0xffffffffffffffffull, 0), graph::IoErrorKind::overflow},
      // Structurally invalid payload: offsets that don't end at the edge
      // count (n=1, m=1, row_offsets = {0, 9}).
      {header(1, 1, 0) + std::string("\x00\x00\x00\x00\x09\x00\x00\x00"
                                     "\x00\x00\x00\x00",
                                     12),
       graph::IoErrorKind::invalid_graph},
  };
  int i = 0;
  for (const Case& c : cases) {
    const auto p = write_file(("typedb" + std::to_string(i++) + ".agg").c_str(),
                              c.content);
    const auto r = graph::try_read_binary(p);
    ASSERT_FALSE(r.ok()) << i;
    EXPECT_EQ(r.error.kind, c.kind)
        << "case " << (i - 1) << " -> "
        << graph::io_error_kind_name(r.error.kind) << " ("
        << r.error.message << ")";
  }
}

TEST_F(IoTypedErrorTest, BinaryRoundTripSurvivesTypedPath) {
  auto g = graph::csr_from_edges(
      3, std::vector<graph::Edge>{{0, 1}, {1, 2}, {2, 0}});
  graph::assign_uniform_weights(g, 1, 9, 7);
  const auto p = write_file("roundtrip.agg", "");
  graph::write_binary(g, p);
  const auto r = graph::try_read_binary(p);
  ASSERT_TRUE(r.ok()) << r.error.message;
  EXPECT_EQ(r.graph.num_nodes, 3u);
  EXPECT_EQ(r.graph.num_edges(), 3u);
  EXPECT_EQ(r.graph.weights, g.weights);
}

// ---- structure-aware fuzz pass -----------------------------------------------
//
// Seeded mutation loop: start from a valid file of each format, apply
// deterministic structural mutations (truncation, byte corruption, garbage
// line injection), and require every mutant to either parse into a CSR whose
// invariants hold or fail with a typed IoError — never abort, crash, or
// silently truncate into an invalid graph.

class IoFuzzTest : public IoFailureTest {
 protected:
  // Applies one deterministic mutation drawn from `rng`.
  static std::string mutate(std::string s, agg::Prng& rng) {
    switch (rng.bounded(4)) {
      case 0:  // truncate
        return s.substr(0, rng.bounded(s.size() + 1));
      case 1: {  // flip a byte
        if (s.empty()) return s;
        s[rng.bounded(s.size())] = static_cast<char>(rng.next_u32() & 0xff);
        return s;
      }
      case 2: {  // insert garbage
        std::string junk;
        for (int i = 0; i < 8; ++i) {
          junk += static_cast<char>(rng.next_u32() & 0xff);
        }
        s.insert(rng.bounded(s.size() + 1), junk);
        return s;
      }
      default: {  // duplicate a slice (re-ordered records / double headers)
        if (s.empty()) return s;
        const std::size_t at = rng.bounded(s.size());
        const std::size_t len = 1 + rng.bounded(std::min<std::size_t>(
                                        16, s.size() - at));
        s.insert(at, s.substr(at, len));
        return s;
      }
    }
  }

  template <typename Reader>
  void run(const char* tag, const std::string& seed_content, Reader reader,
           int rounds) {
    agg::Prng rng(0xf0220000 + static_cast<std::uint64_t>(tag[0]));
    for (int i = 0; i < rounds; ++i) {
      std::string content = seed_content;
      const int kicks = 1 + static_cast<int>(rng.bounded(3));
      for (int k = 0; k < kicks; ++k) content = mutate(std::move(content), rng);
      const auto p = write_file(
          (std::string("fuzz_") + tag + std::to_string(i)).c_str(), content);
      const graph::IoResult r = reader(p);
      if (r.ok()) {
        // Accepted input must satisfy every structural invariant.
        EXPECT_TRUE(r.graph.validate_error().empty())
            << tag << " round " << i << ": accepted an invalid graph";
      } else {
        EXPECT_NE(r.error.kind, graph::IoErrorKind::none);
        EXPECT_FALSE(r.error.message.empty());
      }
    }
  }
};

TEST_F(IoFuzzTest, DimacsMutants) {
  std::string seed = "c fuzz seed\np sp 4 5\n";
  seed += "a 1 2 3\na 2 3 1\na 3 4 2\na 4 1 9\na 1 3 4\n";
  run("gr", seed, graph::try_read_dimacs, 120);
}

TEST_F(IoFuzzTest, SnapMutants) {
  const std::string seed = "# Nodes: 4\n0\t1\n1\t2\n2\t3\n3\t0\n1\t3\n";
  run("sn", seed, graph::try_read_snap_edgelist, 120);
}

TEST_F(IoFuzzTest, BinaryMutants) {
  auto g = graph::csr_from_edges(
      5, std::vector<graph::Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  graph::assign_uniform_weights(g, 1, 9, 3);
  const auto seed_path = write_file("fuzz_seed.agg", "");
  graph::write_binary(g, seed_path);
  std::ifstream in(seed_path, std::ios::binary);
  std::string seed((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  ASSERT_FALSE(seed.empty());
  run("bin", seed, graph::try_read_binary, 150);
}

// ---- API precondition failures ------------------------------------------------

using ApiFailureDeathTest = ::testing::Test;

TEST(ApiFailure, BfsSourceOutOfRangeIsTypedError) {
  const auto g = adaptive::Graph::from_edges(2, {{0, 1}});
  const auto out = adaptive::bfs(g, 5);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.code, adaptive::ErrorCode::invalid_argument);
  EXPECT_NE(out.error.find("source"), std::string::npos) << out.error;
}

TEST(ApiFailureDeathTest, InvalidVariantName) {
  EXPECT_DEATH(adaptive::Policy::fixed("U_X_BM"), "");
  EXPECT_DEATH(adaptive::Policy::fixed("bogus"), "variant names");
}

TEST(ApiFailureDeathTest, CsrValidateRejectsCorruptOffsets) {
  graph::Csr g;
  g.num_nodes = 2;
  g.row_offsets = {0, 5, 1};  // non-monotone
  g.col_indices = {0};
  EXPECT_DEATH(g.validate(), "");
}

TEST(ApiFailureDeathTest, CsrValidateRejectsOutOfRangeTarget) {
  graph::Csr g;
  g.num_nodes = 2;
  g.row_offsets = {0, 1, 1};
  g.col_indices = {7};
  EXPECT_DEATH(g.validate(), "edge target out of range");
}

TEST(ApiFailureDeathTest, ZeroWeightRejected) {
  auto g = graph::csr_from_edges(2, std::vector<graph::Edge>{{0, 1}});
  EXPECT_DEATH(graph::assign_uniform_weights(g, 0, 5, 1), "");
}

}  // namespace
