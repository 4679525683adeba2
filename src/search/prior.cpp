#include "search/prior.h"

#include <algorithm>
#include <cmath>

#include "support/common.h"
#include "support/io.h"
#include "support/numeric.h"
#include "support/telemetry.h"

namespace perfdojo::search {

namespace {

/// Appends a JSON array of doubles, every element via formatDouble so the
/// text round-trips bit-exactly through the locale-free parser.
void appendDoubleArray(std::string& out, const char* key,
                       const std::vector<double>& v) {
  out += ",\"";
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += formatDouble(v[i]);
  }
  out += ']';
}

std::vector<double> readDoubleArray(const JsonValue& doc, const char* key,
                                    std::size_t want) {
  const JsonValue* a = doc.find(key);
  require(a && a->kind == JsonValue::Kind::Array,
          std::string("prior model: missing array '") + key + "'");
  require(a->array.size() == want,
          std::string("prior model: array '") + key + "' has " +
              std::to_string(a->array.size()) + " elements, expected " +
              std::to_string(want));
  std::vector<double> v;
  v.reserve(want);
  for (const auto& e : a->array) {
    require(e.kind == JsonValue::Kind::Number,
            std::string("prior model: non-numeric element in '") + key + "'");
    v.push_back(e.num);
  }
  return v;
}

}  // namespace

std::vector<double> PriorModel::features(
    const std::string& canonical_text) const {
  require(valid(), "PriorModel: predict on an empty model");
  return embedder_.embed(canonical_text);
}

double PriorModel::predict(const std::vector<double>& f) const {
  require(valid(), "PriorModel: predict on an empty model");
  require(static_cast<int>(f.size()) == dim_, "PriorModel: feature dim mismatch");
  // dim -> hidden (ReLU) -> 1, evaluated without any mutable caches so the
  // same model scores identically from any thread and any call order.
  double out = b2_[0];
  for (int h = 0; h < hidden_; ++h) {
    double acc = b1_[static_cast<std::size_t>(h)];
    const double* row = &w1_[static_cast<std::size_t>(h) * dim_];
    for (int i = 0; i < dim_; ++i)
      acc += row[i] * f[static_cast<std::size_t>(i)];
    if (acc > 0) out += w2_[static_cast<std::size_t>(h)] * acc;
  }
  return out;
}

std::vector<std::size_t> PriorModel::topK(const std::vector<double>& scores,
                                          std::size_t k) {
  std::vector<std::size_t> idx(scores.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  if (k >= scores.size()) return idx;  // already in ascending index order
  // NaN scores (a degenerate embedding) sort last, so they are filtered
  // first and can never displace a finitely scored neighbor.
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double sa = scores[a], sb = scores[b];
                     const bool fa = std::isfinite(sa), fb = std::isfinite(sb);
                     if (fa != fb) return fa;
                     return sa < sb;
                   });
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}

std::string PriorModel::serialize() const {
  require(valid(), "PriorModel: serialize on an empty model");
  std::string out = "{\"type\":\"perfdojo_prior\",\"version\":" +
                    std::to_string(kPriorSchemaVersion) +
                    ",\"dim\":" + std::to_string(dim_) +
                    ",\"hidden\":" + std::to_string(hidden_) +
                    ",\"embed_seed\":\"" + formatHex64(embed_seed_) + "\"" +
                    ",\"target_mean\":" + formatDouble(target_mean_) +
                    ",\"target_std\":" + formatDouble(target_std_);
  appendDoubleArray(out, "w1", w1_);
  appendDoubleArray(out, "b1", b1_);
  appendDoubleArray(out, "w2", w2_);
  appendDoubleArray(out, "b2", b2_);
  out += "}\n";
  return out;
}

PriorModel PriorModel::deserialize(const std::string& text) {
  JsonValue doc;
  std::string err;
  if (!parseJson(text, doc, &err))
    fail("prior model: malformed JSON: " + err);
  require(doc.stringOr("type", "") == "perfdojo_prior",
          "prior model: not a perfdojo_prior file");
  const int version = static_cast<int>(doc.numberOr("version", -1));
  require(version == kPriorSchemaVersion,
          "prior model: unsupported version " + std::to_string(version) +
              " (expected " + std::to_string(kPriorSchemaVersion) + ")");
  const int dim = static_cast<int>(doc.numberOr("dim", 0));
  const int hidden = static_cast<int>(doc.numberOr("hidden", 0));
  require(dim > 0 && hidden > 0, "prior model: bad dim/hidden");
  std::uint64_t embed_seed = 0;
  require(parseHex64(doc.stringOr("embed_seed", ""), embed_seed),
          "prior model: bad embed_seed");
  const double mean = doc.numberOr("target_mean", 0.0);
  const double stddev = doc.numberOr("target_std", 0.0);
  require(std::isfinite(mean) && std::isfinite(stddev) && stddev > 0,
          "prior model: bad target moments");
  const auto n = static_cast<std::size_t>(dim);
  const auto h = static_cast<std::size_t>(hidden);
  return make(dim, hidden, embed_seed, mean, stddev,
              readDoubleArray(doc, "w1", h * n), readDoubleArray(doc, "b1", h),
              readDoubleArray(doc, "w2", h), readDoubleArray(doc, "b2", 1));
}

void PriorModel::save(const std::string& path) const {
  writeTextFileAtomic(path, serialize());
}

PriorModel PriorModel::load(const std::string& path) {
  return deserialize(readTextFile(path));
}

PriorModel PriorModel::make(int dim, int hidden, std::uint64_t embed_seed,
                            double target_mean, double target_std,
                            std::vector<double> w1, std::vector<double> b1,
                            std::vector<double> w2, std::vector<double> b2) {
  require(dim > 0 && hidden > 0, "PriorModel::make: bad shape");
  require(w1.size() == static_cast<std::size_t>(dim) * hidden &&
              b1.size() == static_cast<std::size_t>(hidden) &&
              w2.size() == static_cast<std::size_t>(hidden) && b2.size() == 1,
          "PriorModel::make: weight shape mismatch");
  require(std::isfinite(target_mean) && std::isfinite(target_std) &&
              target_std > 0,
          "PriorModel::make: bad target moments");
  PriorModel m;
  m.dim_ = dim;
  m.hidden_ = hidden;
  m.embed_seed_ = embed_seed;
  m.target_mean_ = target_mean;
  m.target_std_ = target_std;
  m.w1_ = std::move(w1);
  m.b1_ = std::move(b1);
  m.w2_ = std::move(w2);
  m.b2_ = std::move(b2);
  m.embedder_ = rl::TextEmbedder(dim, embed_seed);
  return m;
}

}  // namespace perfdojo::search
