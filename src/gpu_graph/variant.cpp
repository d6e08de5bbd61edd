#include "gpu_graph/variant.h"

#include "common/check.h"

namespace gg {

std::array<Variant, 8> all_variants() {
  std::array<Variant, 8> out;
  std::size_t i = 0;
  for (const Ordering o : {Ordering::ordered, Ordering::unordered}) {
    for (const Mapping m : {Mapping::thread, Mapping::block}) {
      for (const WorksetRepr w : {WorksetRepr::bitmap, WorksetRepr::queue}) {
        out[i++] = Variant{o, m, w};
      }
    }
  }
  return out;
}

std::array<Variant, 4> unordered_variants() {
  std::array<Variant, 4> out;
  std::size_t i = 0;
  for (const Mapping m : {Mapping::thread, Mapping::block}) {
    for (const WorksetRepr w : {WorksetRepr::bitmap, WorksetRepr::queue}) {
      out[i++] = Variant{Ordering::unordered, m, w};
    }
  }
  return out;
}

std::array<Variant, 2> warp_centric_variants() {
  return {Variant{Ordering::unordered, Mapping::warp, WorksetRepr::bitmap},
          Variant{Ordering::unordered, Mapping::warp, WorksetRepr::queue}};
}

const char* direction_name(Direction d) {
  switch (d) {
    case Direction::push: return "push";
    case Direction::pull: return "pull";
    case Direction::adaptive: return "adaptive";
  }
  return "push";
}

const char* representation_name(Representation r) {
  switch (r) {
    case Representation::plain: return "plain";
    case Representation::relabelled: return "relabelled";
    case Representation::adaptive: return "adaptive";
  }
  return "plain";
}

std::optional<Representation> try_parse_representation(const std::string& name) {
  for (const Representation r : {Representation::plain,
                                 Representation::relabelled,
                                 Representation::adaptive}) {
    if (name == representation_name(r)) return r;
  }
  return std::nullopt;
}

std::string variant_name(const Variant& v) {
  std::string name;
  name += v.ordering == Ordering::ordered ? "O" : "U";
  switch (v.mapping) {
    case Mapping::thread: name += "_T"; break;
    case Mapping::block: name += "_B"; break;
    case Mapping::warp: name += "_W"; break;
  }
  name += v.repr == WorksetRepr::bitmap ? "_BM" : "_QU";
  // Push is the paper's (implicit) direction and keeps the paper's names;
  // the direction extension only surfaces when it deviates.
  if (v.direction == Direction::pull) name += "_PULL";
  if (v.direction == Direction::adaptive) name += "_DO";
  // Representation is the outermost suffix (plain stays unspelled), so
  // names compose as base[_direction][_representation]: U_T_BM_PULL_REL.
  if (v.representation == Representation::relabelled) name += "_REL";
  if (v.representation == Representation::adaptive) name += "_AREP";
  return name;
}

std::optional<Variant> try_parse_variant(const std::string& name) {
  std::string base = name;
  Direction dir = Direction::push;
  Representation rep = Representation::plain;
  const auto strip = [&base](const char* suffix) {
    const std::string s(suffix);
    if (base.size() > s.size() &&
        base.compare(base.size() - s.size(), s.size(), s) == 0) {
      base.resize(base.size() - s.size());
      return true;
    }
    return false;
  };
  // Representation suffixes are outermost, so they strip first.
  if (strip("_REL")) {
    rep = Representation::relabelled;
  } else if (strip("_AREP")) {
    rep = Representation::adaptive;
  }
  if (strip("_PULL")) {
    dir = Direction::pull;
  } else if (strip("_DO")) {
    dir = Direction::adaptive;
  } else {
    strip("_PUSH");  // explicit push spelling, same as no suffix
  }
  if (base.size() != 6 || base[1] != '_' || base[3] != '_') return std::nullopt;
  Variant v;
  v.direction = dir;
  v.representation = rep;
  if (base[0] == 'O') {
    v.ordering = Ordering::ordered;
  } else if (base[0] == 'U') {
    v.ordering = Ordering::unordered;
  } else {
    return std::nullopt;
  }
  switch (base[2]) {
    case 'T': v.mapping = Mapping::thread; break;
    case 'B': v.mapping = Mapping::block; break;
    case 'W': v.mapping = Mapping::warp; break;
    default: return std::nullopt;
  }
  const std::string repr = base.substr(4);
  if (repr == "BM") {
    v.repr = WorksetRepr::bitmap;
  } else if (repr == "QU") {
    v.repr = WorksetRepr::queue;
  } else {
    return std::nullopt;
  }
  return v;
}

Variant parse_variant(const std::string& name) {
  const std::optional<Variant> v = try_parse_variant(name);
  AGG_CHECK_MSG(v.has_value(),
                "variant names look like U_T_BM (optionally _PULL/_DO, "
                "then _REL/_AREP)");
  return *v;
}

}  // namespace gg
