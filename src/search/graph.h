// The transformation graph (Figure 4): nodes are canonical programs, edges
// are single transformations. Supports bounded exploration around a program
// and GraphViz export for inspecting optimization paths.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "machines/machine.h"
#include "transform/transform.h"

namespace perfdojo::search {

class EvalCache;
class ParallelEvaluator;
class PriorModel;

struct GraphNode {
  std::uint64_t hash = 0;
  ir::Program program;
  double runtime = 0;
  int depth = 0;
};

struct GraphEdge {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::string label;  // transformation description
};

class TransformationGraph {
 public:
  /// Breadth-first expansion from `root` up to `max_depth`, capping the
  /// total node count (distinct canonical programs). Each node is evaluated
  /// exactly once: duplicate-hash candidates are deduplicated *before* any
  /// evaluation, and leaves at the depth limit are never enqueued.
  ///
  /// An optional EvalCache shares costs with other consumers (a search run,
  /// a Dojo session); an optional ParallelEvaluator prices each expansion
  /// level's unique new nodes concurrently. Children are identified by
  /// incremental (in-place) canonical hashing, and only the deduplicated
  /// fresh nodes are ever materialized into tree copies. Both knobs are
  /// purely accelerative: the resulting graph is identical with or without
  /// them.
  ///
  /// An optional learned prior (search/prior.h) prunes each parent's action
  /// list to the `prior_topk` best-predicted children before any hashing or
  /// evaluation; pruned candidates are counted in priorFiltered(). Unlike
  /// the knobs above this changes the graph — it is the expansion-side
  /// analogue of the search drivers' top-k gate. prior_topk == 0 ("all") or
  /// a null prior leaves the expansion untouched.
  TransformationGraph(const ir::Program& root, const machines::Machine& m,
                      int max_depth, std::size_t max_nodes,
                      EvalCache* cache = nullptr,
                      ParallelEvaluator* pool = nullptr,
                      const PriorModel* prior = nullptr, int prior_topk = 0);

  std::size_t nodeCount() const { return nodes_.size(); }
  std::size_t edgeCount() const { return edges_.size(); }
  /// Candidate children skipped by the prior gate before evaluation.
  std::int64_t priorFiltered() const { return prior_filtered_; }
  const std::map<std::uint64_t, GraphNode>& nodes() const { return nodes_; }
  const std::vector<GraphEdge>& edges() const { return edges_; }

  const GraphNode* find(std::uint64_t hash) const;
  const GraphNode& best() const;
  const GraphNode& root() const;

  /// Shortest path (in moves) from the root to the given node; edge labels.
  std::vector<std::string> pathTo(std::uint64_t hash) const;

  /// GraphViz dot rendering (runtime-colored nodes).
  std::string toDot(std::size_t max_rendered = 64) const;

 private:
  std::uint64_t root_hash_ = 0;
  std::int64_t prior_filtered_ = 0;
  std::map<std::uint64_t, GraphNode> nodes_;
  std::vector<GraphEdge> edges_;
  std::map<std::uint64_t, std::pair<std::uint64_t, std::string>> parent_;
};

}  // namespace perfdojo::search
