// Output oracle of the benchmark.  Every check returns "" when the result
// holds and a one-line description otherwise; the workloads count each
// non-empty answer as a failed result.
//
// The oracle only compares a result with another computation of the same
// function: the same entry point, mode and seed.  It never compares pooled
// labels with sequential ones (they differ by design, DESIGN.md §5.2), and
// it never treats a pinned cut as correct: cut is the edge_cut metric.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/csr.hpp"

namespace perfbench {

/// The labelling has n entries, each in [0, k), and `reported_cut` equals
/// the cut recomputed from scratch (compute_kway_cut).
std::string check_labels(const mgp::Graph& g, std::span<const mgp::part_t> part,
                         mgp::part_t k, mgp::ewt_t reported_cut);

/// FNV-1a 64 over the label bytes.
std::uint64_t label_hash(std::span<const mgp::part_t> part);

/// A repeated computation gave the same labelling as the reference one.
std::string check_repeat(std::uint64_t hash, std::uint64_t reference_hash);

/// A served response equals its offline twin byte for byte.
std::string check_same_bytes(std::span<const std::uint8_t> served,
                             std::span<const std::uint8_t> twin);

/// k * (heaviest part) / (total vertex weight); 1.0 is perfect balance.
double imbalance_of(const mgp::Graph& g, std::span<const mgp::part_t> part,
                    mgp::part_t k);

}  // namespace perfbench
