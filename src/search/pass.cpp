#include "search/pass.h"

#include <algorithm>

#include "ir/program_index.h"
#include "ir/walk.h"
#include "search/evalcache.h"
#include "support/common.h"
#include "support/telemetry.h"

namespace perfdojo::search {

using transform::History;
using transform::Location;
using transform::MachineCaps;
using transform::Transform;

namespace detail {

int applyExhaustively(History& h, const Transform& t, const MachineCaps& caps,
                      int max_apps) {
  int applied = 0;
  while (applied < max_apps) {
    auto locs = t.findApplicable(h.current(), caps);
    if (locs.empty()) break;
    h.push({&t, locs[0]});
    ++applied;
  }
  return applied;
}

bool applyFirst(History& h, const Transform& t, const MachineCaps& caps,
                const std::function<bool(const ir::Program&, const Location&)>& pred) {
  for (const auto& loc : t.findApplicable(h.current(), caps)) {
    if (pred(h.current(), loc)) {
      h.push({&t, loc});
      return true;
    }
  }
  return false;
}

}  // namespace detail

namespace {

using detail::applyExhaustively;
using detail::applyFirst;

void fuseOnly(History& h, const MachineCaps& caps) {
  applyExhaustively(h, transform::joinScopes(), caps);
}

void reuseAndPlace(History& h, const MachineCaps& caps) {
  // Reuse may unlock further fusion (and vice versa); iterate to fixpoint,
  // then move small internal buffers to the stack.
  for (int round = 0; round < 64; ++round) {
    int changed = 0;
    changed += applyExhaustively(h, transform::joinScopes(), caps);
    changed += applyExhaustively(h, transform::reuseDims(), caps);
    if (changed == 0) break;
  }
  applyExhaustively(h, transform::setStorage(), caps, 16);
}

void fuseAndReuse(History& h, const MachineCaps& caps) {
  fuseOnly(h, caps);
  reuseAndPlace(h, caps);
}

/// Split an applicable innermost loop by `width` and vectorize the new inner
/// loop. Returns true if one vectorization happened.
bool splitAndVectorize(History& h, const MachineCaps& caps, std::int64_t width) {
  // Direct vectorization without splitting (loop already == width).
  if (applyFirst(h, transform::vectorize(), caps,
                 [](const ir::Program&, const Location&) { return true; }))
    return true;
  auto splits = transform::splitScope().findApplicable(h.current(), caps);
  for (const auto& sl : splits) {
    if (sl.param != width) continue;
    // The split must create a vectorizable inner loop: try it, keep it only
    // if vectorize fires right after.
    h.push({&transform::splitScope(), sl});
    if (applyFirst(h, transform::vectorize(), caps,
                   [](const ir::Program&, const Location&) { return true; }))
      return true;
    h.undo();
  }
  return false;
}

/// Expert vectorization: split a data-parallel loop by `width`, sink the new
/// width-loop to the innermost position through interchanges, and vectorize
/// it. Composed entirely of atomic transformations; every partial attempt is
/// rolled back through the non-destructive history.
bool splitSinkVectorize(History& h, const MachineCaps& caps, std::int64_t width) {
  if (splitAndVectorize(h, caps, width)) return true;
  auto splits = transform::splitScope().findApplicable(h.current(), caps);
  for (const auto& sl : splits) {
    if (sl.param != width) continue;
    const std::size_t mark = h.size();
    h.push({&transform::splitScope(), sl});
    // The freshly created inner loop keeps getting interchanged inward; its
    // identity travels with its NodeId through the swaps.
    const ir::Node* outer = ir::findNode(h.current().root, sl.node);
    ir::NodeId vloop = outer->children[0].id;
    bool done = false;
    for (int sink = 0; sink < 8 && !done; ++sink) {
      Location vl;
      vl.node = vloop;
      auto vlocs = transform::vectorize().findApplicable(h.current(), caps);
      for (const auto& cand : vlocs) {
        if (cand.node == vloop) {
          h.push({&transform::vectorize(), cand});
          done = true;
          break;
        }
      }
      if (done) break;
      Location il;
      il.node = vloop;
      auto ilocs = transform::interchangeScopes().findApplicable(h.current(), caps);
      bool moved = false;
      for (const auto& cand : ilocs) {
        if (cand.node == vloop) {
          h.push({&transform::interchangeScopes(), cand});
          moved = true;
          break;
        }
      }
      if (!moved) break;
    }
    if (done) return true;
    h.truncate(mark);
  }
  return false;
}

/// Distributes imperfect or multi-op loop bodies into separate loops where
/// legal, opening perfect nests for interchange/vectorization. Innermost
/// buffer reuse (`:N`) blocks fission of fused nests whose temporaries were
/// shrunk, which is exactly the desired behaviour.
void fissionForVectorization(History& h, const MachineCaps& caps) {
  for (int round = 0; round < 16; ++round) {
    const bool did = applyFirst(
        h, transform::fissionScope(), caps,
        [](const ir::Program& p, const Location& l) {
          const ir::Node* s = ir::findNode(p.root, l.node);
          if (s->children.size() < 2) return false;
          // Only distribute init/compute patterns over a single array
          // (e.g. `C=0; for k: C+=...` or `t=sub; t=exp`): splitting those
          // opens perfect nests at negligible locality cost. Fused nests
          // touching several buffers stay fused.
          std::string array;
          for (const auto& c : s->children) {
            const auto written = ir::arraysWritten(c);
            if (written.size() != 1) return false;
            if (array.empty()) array = written[0];
            else if (array != written[0]) return false;
          }
          return true;
        });
    if (!did) break;
  }
}

/// True if the subtree under scope `s` holds an accumulation whose output is
/// indexed by iter(s) while its dependence chain is carried by a deeper loop
/// — the latency-bound shape the paper's heuristic targets with its
/// [N,D1,D2] -> [N/4,D1,D2,4] + unroll restructuring.
bool containsChainedAccum(const ir::Program& p, ir::NodeId s) {
  const ir::Node* scope = ir::findNode(p.root, s);
  if (!scope) return false;
  for (const ir::Node* op : ir::collectOps(*scope)) {
    if (!ir::isAccumulation(*op) || !op->out.usesIter(s)) continue;
    const auto chain = ir::enclosingScopes(p.root, op->id);
    bool below = false;
    for (ir::NodeId a : chain) {
      if (a == s) {
        below = true;
        continue;
      }
      if (below && !op->out.usesIter(a)) return true;
    }
  }
  return false;
}

/// The Figure 7 heuristic: tile a chained nest's independent loop by `k`,
/// reposition the tile innermost via interchanges, and unroll it — turning
/// one dependence chain into `k` interleaved ones.
void chainTileSinkUnroll(History& h, const MachineCaps& caps, std::int64_t k) {
  for (int attempts = 0; attempts < 16; ++attempts) {
    bool progressed = false;
    for (const auto& sl :
         transform::splitScope().findApplicable(h.current(), caps)) {
      if (sl.param != k) continue;
      if (!containsChainedAccum(h.current(), sl.node)) continue;
      const std::size_t mark = h.size();
      h.push({&transform::splitScope(), sl});
      const ir::Node* outer = ir::findNode(h.current().root, sl.node);
      const ir::NodeId tile = outer->children[0].id;
      // Sink the tile loop to the innermost position.
      for (int sink = 0; sink < 8; ++sink) {
        bool moved = false;
        for (const auto& il :
             transform::interchangeScopes().findApplicable(h.current(), caps)) {
          if (il.node == tile) {
            h.push({&transform::interchangeScopes(), il});
            moved = true;
            break;
          }
        }
        if (!moved) break;
      }
      // It must now wrap the accumulation directly; otherwise roll back.
      const ir::Node* t = ir::findNode(h.current().root, tile);
      bool ok = t->children.size() == 1 && t->children[0].isOp();
      if (ok) {
        bool unrolled = false;
        for (const auto& l : transform::unroll().findApplicable(h.current(), caps)) {
          if (l.node == tile) {
            h.push({&transform::unroll(), l});
            unrolled = true;
            break;
          }
        }
        ok = unrolled;
      }
      if (!ok) {
        h.truncate(mark);
        continue;
      }
      progressed = true;
      break;
    }
    if (!progressed) break;
  }
}

void snitchHardwarePass(History& h, const MachineCaps& caps, bool tile4) {
  if (tile4) {
    // Expert treatment of 4-cycle FPU latency. First open perfect nests,
    // then interleave 4 chains: data-parallel nests via tile+sink+unroll,
    // pure reductions via partial accumulators.
    fissionForVectorization(h, caps);
    chainTileSinkUnroll(h, caps, 4);
    for (int i = 0; i < 16; ++i) {
      if (!applyFirst(h, transform::partialReduce(), caps,
                      [](const ir::Program&, const Location& l) {
                        return l.param == 4;
                      }))
        break;
    }
    // Unroll every 4-extent loop created by partial_reduce.
    for (int i = 0; i < 32; ++i) {
      if (!applyFirst(h, transform::unroll(), caps,
                      [](const ir::Program& p, const Location& l) {
                        return ir::findNode(p.root, l.node)->extent == 4;
                      }))
        break;
    }
  }
  applyExhaustively(h, transform::ssrStream(), caps, 64);
  applyExhaustively(h, transform::frep(), caps, 64);
}

void cpuHardwarePass(History& h, const MachineCaps& caps, bool expert) {
  applyExhaustively(h, transform::parallelize(), caps, 8);
  const std::int64_t width =
      caps.vector_widths.empty() ? 8 : caps.vector_widths.back();
  if (expert) {
    // Open perfect nests, then vectorize data-parallel loops by sinking a
    // width-tile innermost.
    fissionForVectorization(h, caps);
    for (int i = 0; i < 32; ++i)
      if (!splitSinkVectorize(h, caps, width)) break;
    // Remaining pure reductions: vectorize through partial accumulators.
    for (int i = 0; i < 16; ++i) {
      if (!applyFirst(h, transform::partialReduce(), caps,
                      [&](const ir::Program&, const Location& l) {
                        return l.param == width;
                      }))
        break;
    }
    for (int i = 0; i < 16; ++i)
      if (!splitAndVectorize(h, caps, width)) break;
    // Unroll short leftover loops.
    applyExhaustively(h, transform::unroll(), caps, 8);
  } else {
    for (int i = 0; i < 32; ++i)
      if (!splitAndVectorize(h, caps, width)) break;
  }
}

/// True if the scope at `l.node` is not already nested under a grid mapping
/// (one grid per loop nest; multi-dimensional grids are an expert move).
bool notUnderGrid(const ir::Program& p, const Location& l) {
  for (ir::NodeId a : ir::enclosingScopes(p.root, l.node)) {
    const ir::Node* s = ir::findNode(p.root, a);
    if (s && s->anno == ir::LoopAnno::GpuGrid) return false;
  }
  return true;
}

std::size_t opsUnder(const ir::Program& p, ir::NodeId id) {
  const ir::Node* n = ir::findNode(p.root, id);
  return n ? ir::collectOps(*n).size() : 0;
}

void gpuHardwarePass(History& h, const MachineCaps& caps, bool expert) {
  if (expert) {
    // 128-bit vector loads first: carve 4-wide contiguous innermost loops
    // before the thread mapping fixes the loop structure (the order the
    // paper's discovered mul kernel implies: vectorize, then block=warp).
    for (int i = 0; i < 8; ++i)
      if (!splitSinkVectorize(h, caps, 4)) break;
  }
  // Per nest: map the outermost independent loop to the grid and carve a
  // block out of it (or out of an inner loop), making sure the block scope
  // covers every op of the nest — a block that spans only part of a fused
  // body would execute the rest redundantly in every thread.
  const std::int64_t block = expert ? caps.warp_size : 256;
  for (int nest = 0; nest < 16; ++nest) {
    auto glocs = transform::gpuMapGrid().findApplicable(h.current(), caps);
    const Location* gl = nullptr;
    for (const auto& l : glocs) {
      if (notUnderGrid(h.current(), l)) {
        gl = &l;
        break;
      }
    }
    if (!gl) break;
    const ir::NodeId g = gl->node;
    const Location grid_loc = *gl;
    const std::int64_t extent = ir::findNode(h.current().root, g)->extent;
    const std::size_t total_ops = opsUnder(h.current(), g);
    const std::size_t mark = h.size();

    // Preferred: grid the axis as-is and block an inner loop that covers the
    // whole body (single-op nests: no redundant work, maximal grid). Take
    // the deepest such loop — everything above it can still join the grid,
    // while loops below a block run sequentially in every thread.
    h.push({&transform::gpuMapGrid(), grid_loc});
    auto pickDeepestBlock = [&]() {
      const Location* best_bl = nullptr;
      std::size_t best_depth = 0;
      auto blocs = transform::gpuMapBlock().findApplicable(h.current(), caps);
      for (const auto& l : blocs) {
        if (opsUnder(h.current(), l.node) != total_ops) continue;
        if (ir::findNode(h.current().root, l.node)->extent >
            caps.max_block_threads)
          continue;
        const std::size_t depth =
            ir::enclosingScopes(h.current().root, l.node).size();
        if (!best_bl || depth > best_depth) {
          best_bl = &l;
          best_depth = depth;
        }
      }
      if (!best_bl) return false;
      h.push({&transform::gpuMapBlock(), *best_bl});
      return true;
    };
    bool did = pickDeepestBlock();
    if (!did) {
      for (const auto& sl :
           transform::splitScope().findApplicable(h.current(), caps)) {
        if (sl.param != block) continue;
        if (opsUnder(h.current(), sl.node) != total_ops) continue;
        h.push({&transform::splitScope(), sl});
        if (pickDeepestBlock()) {
          did = true;
          break;
        }
        h.undo();
      }
    }
    if (did) continue;

    // Fallback for fused multi-nest bodies: tile the grid axis itself so the
    // block covers the entire body by construction (one row per thread).
    h.truncate(mark);
    if (extent % block == 0 && extent / block >= 2) {
      Location sl;
      sl.node = g;
      sl.param = block;
      h.push({&transform::splitScope(), sl});
      const ir::NodeId inner = ir::findNode(h.current().root, g)->children[0].id;
      h.push({&transform::gpuMapGrid(), grid_loc});
      for (const auto& bl :
           transform::gpuMapBlock().findApplicable(h.current(), caps)) {
        if (bl.node == inner) {
          h.push({&transform::gpuMapBlock(), bl});
          break;
        }
      }
    } else {
      h.push({&transform::gpuMapGrid(), grid_loc});  // grid-only nest
    }
  }
  // Fold the remaining sequential loops above the blocks into additional
  // grid dimensions (exhaustive hardware mapping).
  applyExhaustively(h, transform::gpuMapGrid(), caps, 16);
}

}  // namespace

History naivePass(ir::Program p, const machines::Machine& m) {
  History h(std::move(p));
  fuseAndReuse(h, m.caps());
  return h;
}

namespace {

History hardwarePass(ir::Program p, const machines::Machine& m, bool expert) {
  const MachineCaps& caps = m.caps();
  History h(std::move(p));
  // Fuse first; map parallelism second (reuse after parallel mapping would
  // be rejected on the parallel axis, and parallel mapping after reuse is
  // rejected on collapsed buffers — order the pipeline so both get applied
  // to the dimensions where they are legal); shrink and place buffers last.
  fuseOnly(h, caps);
  if (caps.has_ssr || caps.has_frep) snitchHardwarePass(h, caps, expert);
  else if (caps.is_gpu) gpuHardwarePass(h, caps, expert);
  else cpuHardwarePass(h, caps, expert);
  reuseAndPlace(h, caps);
  return h;
}

}  // namespace

History greedyPass(ir::Program p, const machines::Machine& m) {
  return hardwarePass(std::move(p), m, /*expert=*/false);
}

History heuristicPass(ir::Program p, const machines::Machine& m) {
  return hardwarePass(std::move(p), m, /*expert=*/true);
}

std::vector<StepAttribution> attributeHistory(const transform::History& h,
                                              const machines::Machine& m,
                                              Telemetry* sink) {
  std::vector<StepAttribution> out;
  out.reserve(h.size() + 1);
  // Entry i prices the state the history recorded after step i - 1.
  for (std::size_t i = 0; i <= h.size(); ++i) {
    const ir::Program& state = h.stateBefore(i);
    StepAttribution sa;
    if (i > 0) {
      const auto& step = h.steps()[i - 1];
      sa.transform = step.transform->name();
      sa.location = transform::locationToText(step.loc);
    }
    sa.cost = m.evaluate(state);
    sa.breakdown = m.evaluateDetailed(state);
    out.push_back(std::move(sa));
  }
  if (sink) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto& sa = out[i];
      const auto& b = sa.breakdown;
      Event e("transform_step");
      e.integer("step", static_cast<std::int64_t>(i))
          .str("machine", m.name())
          .str("transform", sa.transform)
          .str("loc", sa.location)
          .num("cost", sa.cost)
          .num("delta", i == 0 ? 0.0 : sa.cost - out[i - 1].cost)
          .num("compute", b.compute)
          .num("pipeline_stall", b.pipeline_stall)
          .num("memory", b.memory)
          .num("loop_overhead", b.loop_overhead)
          .num("launch_overhead", b.launch_overhead)
          .numbers("by_scope", b.by_scope);
      sink->emit(e);
    }
  }
  return out;
}

History bestPass(ir::Program p, const machines::Machine& m, EvalCache* cache) {
  auto cost = [&](const History& h) {
    return cache ? cache->evaluate(m, h.current()) : m.evaluate(h.current());
  };
  History best = naivePass(p, m);
  double best_cost = cost(best);
  for (auto* pass : {&greedyPass, &heuristicPass}) {
    History h = (*pass)(p, m);
    const double c = cost(h);
    if (c < best_cost) {
      best_cost = c;
      best = std::move(h);
    }
  }
  return best;
}

}  // namespace perfdojo::search
