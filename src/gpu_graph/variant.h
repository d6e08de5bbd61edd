// The implementation exploration space (paper Sec. IV, Fig. 3): ordering x
// mapping granularity x working-set representation = 8 variants per
// algorithm, named as in the paper's tables (e.g. U_T_BM = unordered,
// thread-mapped, bitmap working set).
//
// Direction (push vs pull) extends that space as a fourth axis: push
// scatters from the frontier along out-edges (CSR), pull gathers over
// in-edges (CSC) — the direction-optimizing axis of Beamer et al. that
// SIMD-X and Gunrock adopt. `Direction::adaptive` never reaches a kernel:
// the runtime controller resolves it to push or pull per iteration.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

namespace gg {

enum class Ordering : std::uint8_t { ordered, unordered };
// thread/block are the paper's two granularities (Sec. IV.B); warp is the
// virtual-warp-centric granularity of Hong et al. [12], which the paper
// names as integrable with its framework — provided here as an extension
// (one element per 32-lane warp, several warps packed per physical block).
enum class Mapping : std::uint8_t { thread, block, warp };
enum class WorksetRepr : std::uint8_t { bitmap, queue };
enum class Direction : std::uint8_t { push, pull, adaptive };
// Graph-layout axis (the 5th adaptive dimension): plain CSR in original id
// order, or degree-relabelled CSR (rows permuted by descending outdegree so
// consecutive thread ids — which form warps — carry similar work).
// `Representation::adaptive` never reaches a kernel: the runtime resolves
// it once, at query start, and the traversal keeps that layout throughout.
enum class Representation : std::uint8_t { plain, relabelled, adaptive };

struct Variant {
  Ordering ordering = Ordering::unordered;
  Mapping mapping = Mapping::thread;
  WorksetRepr repr = WorksetRepr::bitmap;
  Direction direction = Direction::push;
  Representation representation = Representation::plain;

  bool operator==(const Variant&) const = default;
};

// All eight variants in the tables' column order:
// O_T_BM O_T_QU O_B_BM O_B_QU U_T_BM U_T_QU U_B_BM U_B_QU.
std::array<Variant, 8> all_variants();
// The adaptive runtime's pool: the four unordered variants (paper Sec. VI.A).
std::array<Variant, 4> unordered_variants();
// Extension variants: unordered warp-centric mapping (U_W_BM, U_W_QU).
std::array<Variant, 2> warp_centric_variants();

std::string variant_name(const Variant& v);
const char* direction_name(Direction d);
const char* representation_name(Representation r);
// Inverse of representation_name ("plain", "relabelled", "adaptive");
// nullopt on any other spelling.
std::optional<Representation> try_parse_representation(const std::string& name);
// Parses names like "U_B_QU", optionally suffixed with a direction
// ("U_T_BM_PULL", "U_T_BM_DO"; no suffix or "_PUSH" means push) and/or an
// outermost representation ("U_T_BM_REL", "U_T_BM_PULL_REL", "U_T_BM_AREP";
// no suffix means plain). Returns nullopt on malformed input.
std::optional<Variant> try_parse_variant(const std::string& name);
// Same grammar; aborts on malformed input (legacy contract).
Variant parse_variant(const std::string& name);

}  // namespace gg
