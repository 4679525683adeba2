// Learned cost-model prior (a K-Search-style world model).
//
// A tiny MLP regressor over the hashed-n-gram program embedding
// (rl::TextEmbedder) predicts the machine-model cost of a candidate from its
// canonical text alone. Inside search it acts as a PRE-FILTER, never as the
// cost function: each state's neighbor set is scored, only the top-k
// best-predicted neighbors stay drawable and proceed to exact (delta-priced)
// evaluation, the rest are skipped and counted in SearchStats::prior_filtered.
// Search decisions are still made exclusively on exact machine-model costs, so
// a wrong prior can waste evaluations but can never corrupt a reported cost.
//
// Inference is a pure function of (model file, canonical text): no RNG, no
// caches, no thread-count dependence — scoring happens on the search decision
// thread and two processes loading the same model file score bit-identically.
// The model file itself is versioned, locale-free (support/numeric
// shortest-round-trip formatting, so save -> load -> save is bit-identical)
// and written atomically.
//
// Trained offline by `perfdojo train-prior` from accumulated JSONL search
// telemetry (see search/prior_train.h); search runs with a prior active
// append hit-rate / rank-correlation to their search_end events, so reruns of
// the trainer on fresh traces close the co-evolution loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rl/embedding.h"

namespace perfdojo::search {

/// Schema version stamped into both trained model files and the telemetry
/// events the trainer consumes (`prior_schema` on search_begin). Bump when
/// the feature definition or the trace fields change; the trainer rejects
/// traces and model files from any other version.
constexpr int kPriorSchemaVersion = 1;

/// Spelling of SearchConfig::prior_topk == 0 ("keep every neighbor"): the
/// prior scores nothing and the run is bit-identical to one without a prior.
constexpr int kPriorTopkAll = 0;

class PriorModel {
 public:
  /// An empty (untrained) model; valid() is false and predict() throws.
  PriorModel() = default;

  bool valid() const { return dim_ > 0; }
  int dim() const { return dim_; }
  int hidden() const { return hidden_; }

  /// Embedding features of a canonical program text (L2-normalized hashed
  /// n-grams, rl::TextEmbedder). Pure and thread-safe.
  std::vector<double> features(const std::string& canonical_text) const;

  /// Predicted cost score for one feature vector: the standardized log-cost
  /// the MLP was fit to. Monotone in predicted runtime — ranking on it is
  /// ranking on predicted cost — and exp(mean + std * score) recovers the
  /// predicted seconds. Pure and thread-safe (no forward caches).
  double predict(const std::vector<double>& f) const;

  /// Indices of the k smallest predictions, returned in ascending index
  /// order (so downstream uniform draws over the kept set are deterministic
  /// and order-independent of the ranking pass). Ties keep the lower index.
  /// k >= scores.size() keeps everything.
  static std::vector<std::size_t> topK(const std::vector<double>& scores,
                                       std::size_t k);

  /// Versioned single-line JSON; every double via formatDouble (shortest
  /// round-trip), so serialize -> deserialize -> serialize is bit-identical
  /// on any locale.
  std::string serialize() const;
  /// Throws Error with a diagnostic on malformed input, a wrong version, or
  /// inconsistent shapes.
  static PriorModel deserialize(const std::string& text);

  void save(const std::string& path) const;          // atomic write
  static PriorModel load(const std::string& path);   // throws Error

  /// Assembled by the trainer: MLP is dim -> hidden (ReLU) -> 1, weights
  /// row-major, targets standardized log-runtimes with the given moments.
  static PriorModel make(int dim, int hidden, std::uint64_t embed_seed,
                         double target_mean, double target_std,
                         std::vector<double> w1, std::vector<double> b1,
                         std::vector<double> w2, std::vector<double> b2);

 private:
  int dim_ = 0;
  int hidden_ = 0;
  std::uint64_t embed_seed_ = 0;
  double target_mean_ = 0.0;
  double target_std_ = 1.0;
  std::vector<double> w1_, b1_;  // [hidden x dim], [hidden]
  std::vector<double> w2_, b2_;  // [1 x hidden], [1]
  rl::TextEmbedder embedder_{48};
};

}  // namespace perfdojo::search
