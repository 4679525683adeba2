#include "search/graph.h"

#include <algorithm>
#include <deque>

#include "ir/canonical.h"
#include "ir/incremental.h"
#include "search/delta.h"
#include "search/evalcache.h"
#include "search/parallel_eval.h"
#include "search/prior.h"
#include "support/common.h"
#include "support/strings.h"
#include "transform/action_set.h"

namespace perfdojo::search {

namespace {

double nodeCost(const machines::Machine& m, EvalCache* cache,
                std::uint64_t hash, const ir::Program& p) {
  return cache ? cache->evaluateHashed(m, hash, p) : m.evaluate(p);
}

/// A candidate child produced by the apply phase, before deduplication.
struct Candidate {
  std::uint64_t hash = 0;
  std::string label;
};

}  // namespace

TransformationGraph::TransformationGraph(const ir::Program& root,
                                         const machines::Machine& m,
                                         int max_depth, std::size_t max_nodes,
                                         EvalCache* cache,
                                         ParallelEvaluator* pool,
                                         const PriorModel* prior,
                                         int prior_topk) {
  root_hash_ = ir::canonicalHash(root);
  nodes_[root_hash_] = {root_hash_, root,
                        nodeCost(m, cache, root_hash_, root), 0};
  std::deque<std::uint64_t> frontier;
  if (max_depth > 0) frontier.push_back(root_hash_);
  DeltaContext delta;
  // Incremental enumeration: BFS expands all children of one parent
  // consecutively, so one ActionSet bound to that parent derives every
  // sibling's action list by replaying the producing action and splicing
  // from its mutation summary — one full enumeration per PARENT instead of
  // one per node. `via` remembers which (parent, action) produced each
  // enqueued node; the maintained lists are element-identical to a fresh
  // allActions, so the expansion order and the dedup sequence are too.
  transform::ActionSet parent_set;
  std::uint64_t parent_set_key = 0;
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, transform::Action>>
      via;
  transform::ActionSet aset;
  while (!frontier.empty() && nodes_.size() < max_nodes) {
    const std::uint64_t h = frontier.front();
    frontier.pop_front();
    const GraphNode& n = nodes_.at(h);
    const int depth = n.depth;
    // Copy the program out: expanding mutates the node map.
    const ir::Program p = n.program;
    const auto vit = via.find(h);
    if (vit != via.end()) {
      const std::uint64_t qh = vit->second.first;
      if (!parent_set.bound() || parent_set_key != qh) {
        parent_set.bind(nodes_.at(qh).program, m.caps());
        parent_set_key = qh;
      }
      // apply() assigns ids deterministically from the same parent, so the
      // replayed summary's ids match the stored program `p` exactly.
      aset = parent_set;
      ir::Program scratch = nodes_.at(qh).program;
      ir::MutationSummary mut;
      vit->second.second.transform->applyInPlace(
          scratch, vit->second.second.loc, &mut, /*validate=*/false);
      aset.update(p, mut);
      via.erase(vit);
    } else {
      aset.bind(p, m.caps());
    }
    const std::vector<transform::Action>& enumerated = aset.actions();
    delta.bind(p);

    // Prior gate (expansion-side): score each child's canonical text and
    // keep only the top-k best-predicted actions; the pruned ones are never
    // hashed, deduplicated or priced. topK returns ascending indices, so
    // the surviving expansion order matches the unpruned enumeration.
    std::vector<transform::Action> kept_actions;
    const bool gate = prior != nullptr && prior->valid() && prior_topk > 0 &&
                      enumerated.size() > static_cast<std::size_t>(prior_topk);
    if (gate) {
      std::vector<double> scores(enumerated.size());
      for (std::size_t i = 0; i < enumerated.size(); ++i)
        delta.neighborVisit(enumerated[i],
                            [&](std::uint64_t, const ir::Program& q) {
                              scores[i] = prior->predict(
                                  prior->features(ir::canonicalText(q)));
                            });
      const auto keep =
          PriorModel::topK(scores, static_cast<std::size_t>(prior_topk));
      kept_actions.reserve(keep.size());
      for (const std::size_t i : keep) kept_actions.push_back(enumerated[i]);
      prior_filtered_ +=
          static_cast<std::int64_t>(enumerated.size() - keep.size());
    }
    const std::vector<transform::Action>& actions =
        gate ? kept_actions : enumerated;

    // Phase 1: identify every child by canonical hash + edge label, hashing
    // each action in place against `p` (no tree copies; DeltaContext is
    // inherently serial).
    std::vector<Candidate> cands(actions.size());
    for (std::size_t i = 0; i < cands.size(); ++i) {
      cands[i].hash = delta.neighborHash(actions[i]);
      cands[i].label = actions[i].describe(p);
    }

    // Phase 2 (serial, in action order): record edges, deduplicate by
    // canonical hash BEFORE any materialization or evaluation, insert new
    // nodes, and enqueue only nodes that are strictly inside the depth limit.
    std::vector<std::uint64_t> fresh;
    std::vector<std::size_t> fresh_action;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      Candidate& c = cands[i];
      if (nodes_.size() >= max_nodes) break;
      edges_.push_back({h, c.hash, c.label});
      if (nodes_.count(c.hash)) continue;  // reached earlier by another path
      GraphNode node;
      node.hash = c.hash;
      node.depth = depth + 1;
      parent_[c.hash] = {h, c.label};
      if (node.depth < max_depth) {
        frontier.push_back(c.hash);
        via.emplace(c.hash, std::make_pair(h, actions[i]));
      }
      nodes_[c.hash] = std::move(node);
      fresh.push_back(c.hash);
      fresh_action.push_back(i);
    }

    // Phase 2b: materialize the deduplicated fresh nodes, concurrently when
    // possible — duplicate-hash candidates were never copied at all. The map
    // is not resized, so each worker fills a distinct entry.
    auto materialize = [&](std::size_t i) {
      nodes_.at(fresh[i]).program = actions[fresh_action[i]].apply(p);
    };
    if (pool)
      pool->forEach(fresh.size(), materialize);
    else
      for (std::size_t i = 0; i < fresh.size(); ++i) materialize(i);

    // Phase 3: price the unique new nodes, concurrently when possible. The
    // map is not resized here, so each worker writes a distinct entry.
    auto price = [&](std::size_t i) {
      GraphNode& node = nodes_.at(fresh[i]);
      node.runtime = nodeCost(m, cache, node.hash, node.program);
    };
    if (pool)
      pool->forEach(fresh.size(), price);
    else
      for (std::size_t i = 0; i < fresh.size(); ++i) price(i);
  }
}

const GraphNode* TransformationGraph::find(std::uint64_t hash) const {
  auto it = nodes_.find(hash);
  return it == nodes_.end() ? nullptr : &it->second;
}

const GraphNode& TransformationGraph::best() const {
  const GraphNode* best = nullptr;
  for (const auto& [h, n] : nodes_)
    if (!best || n.runtime < best->runtime) best = &n;
  require(best != nullptr, "TransformationGraph: empty graph");
  return *best;
}

const GraphNode& TransformationGraph::root() const {
  return nodes_.at(root_hash_);
}

std::vector<std::string> TransformationGraph::pathTo(std::uint64_t hash) const {
  std::vector<std::string> path;
  std::uint64_t cur = hash;
  while (cur != root_hash_) {
    auto it = parent_.find(cur);
    require(it != parent_.end(), "pathTo: node not reachable from root");
    path.push_back(it->second.second);
    cur = it->second.first;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string TransformationGraph::toDot(std::size_t max_rendered) const {
  std::string out = "digraph perfdojo {\n  rankdir=LR;\n  node [shape=box];\n";
  const double best_rt = best().runtime;
  std::size_t rendered = 0;
  std::map<std::uint64_t, bool> shown;
  for (const auto& [h, n] : nodes_) {
    if (rendered++ >= max_rendered) break;
    shown[h] = true;
    const bool is_best = n.runtime <= best_rt * 1.0001;
    out += "  n" + std::to_string(h) + " [label=\"" + fmt(n.runtime, 3) +
           "s\\nd=" + std::to_string(n.depth) + "\"" +
           (is_best ? ", style=filled, fillcolor=palegreen" : "") + "];\n";
  }
  for (const auto& e : edges_) {
    if (!shown.count(e.from) || !shown.count(e.to)) continue;
    std::string label = e.label.substr(0, 24);
    out += "  n" + std::to_string(e.from) + " -> n" + std::to_string(e.to) +
           " [label=\"" + label + "\"];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace perfdojo::search
