#include "oracle.hpp"

#include <algorithm>
#include <vector>

#include "core/kway.hpp"
#include "metrics/partition_metrics.hpp"

namespace perfbench {

std::string check_labels(const mgp::Graph& g, std::span<const mgp::part_t> part,
                         mgp::part_t k, mgp::ewt_t reported_cut) {
  if (part.size() != static_cast<std::size_t>(g.num_vertices())) {
    return "labelling has " + std::to_string(part.size()) + " entries for " +
           std::to_string(g.num_vertices()) + " vertices";
  }
  std::string err = mgp::check_partition(g, part, k);
  if (!err.empty()) return err;
  const mgp::ewt_t cut = mgp::compute_kway_cut(g, part);
  if (cut != reported_cut) {
    return "reported cut " + std::to_string(reported_cut) + " != recomputed " +
           std::to_string(cut);
  }
  return "";
}

std::uint64_t label_hash(std::span<const mgp::part_t> part) {
  std::uint64_t h = 1469598103934665603ull;
  for (mgp::part_t p : part) {
    auto v = static_cast<std::uint32_t>(p);
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string check_repeat(std::uint64_t hash, std::uint64_t reference_hash) {
  if (hash == reference_hash) return "";
  return "repeated pass changed the labelling hash";
}

std::string check_same_bytes(std::span<const std::uint8_t> served,
                             std::span<const std::uint8_t> twin) {
  if (served.size() != twin.size()) {
    return "served response has " + std::to_string(served.size()) +
           " bytes, offline twin " + std::to_string(twin.size());
  }
  const auto mm = std::mismatch(served.begin(), served.end(), twin.begin());
  if (mm.first == served.end()) return "";
  return "served response differs from its offline twin at byte " +
         std::to_string(mm.first - served.begin());
}

double imbalance_of(const mgp::Graph& g, std::span<const mgp::part_t> part,
                    mgp::part_t k) {
  std::vector<mgp::vwt_t> w(static_cast<std::size_t>(k), 0);
  for (mgp::vid_t v = 0; v < g.num_vertices(); ++v) {
    w[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] += g.vertex_weight(v);
  }
  const mgp::vwt_t total = g.total_vertex_weight();
  if (total <= 0) return 1.0;
  const mgp::vwt_t heaviest = *std::max_element(w.begin(), w.end());
  return static_cast<double>(k) * static_cast<double>(heaviest) /
         static_cast<double>(total);
}

}  // namespace perfbench
