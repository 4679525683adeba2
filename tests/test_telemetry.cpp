// Telemetry & cost attribution: JSONL round-trips through the bundled
// parser, breakdown components sum exactly to evaluate() on every Table 3
// kernel under all machine models, per-scope attribution sums to the total,
// the trace stream is thread-count independent, and attributeHistory replays
// a pass to the same final cost the pass reports.
#include <clocale>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ir/canonical.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/pass.h"
#include "search/search.h"
#include "support/strings.h"
#include "support/telemetry.h"

namespace perfdojo {
namespace {

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < text.size()) {
    const auto nl = text.find('\n', start);
    if (nl == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return out;
}

TEST(Json, ParsesScalarsObjectsArrays) {
  JsonValue v;
  ASSERT_TRUE(parseJson("{\"a\":1.5,\"b\":[true,null,\"x\"],\"c\":{\"d\":-2e3}}", v));
  EXPECT_EQ(v.kind, JsonValue::Kind::Object);
  EXPECT_DOUBLE_EQ(v.numberOr("a", 0), 1.5);
  const auto* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].b);
  EXPECT_TRUE(b->array[1].isNull());
  EXPECT_EQ(b->array[2].str, "x");
  const auto* c = v.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->numberOr("d", 0), -2000.0);
}

TEST(Json, RejectsMalformedAndTrailingGarbage) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(parseJson("{\"a\":}", v, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parseJson("{} trailing", v));
  EXPECT_FALSE(parseJson("", v));
  EXPECT_FALSE(parseJson("{\"a\":1", v));
}

TEST(Json, EscapeRoundTrip) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 end";
  JsonValue v;
  ASSERT_TRUE(parseJson("{\"s\":\"" + jsonEscape(nasty) + "\"}", v));
  EXPECT_EQ(v.stringOr("s", ""), nasty);
}

// The exact wire bytes: every served response, persisted record and trace
// line goes through jsonEscape/Event, and the store's checksums and the
// smoke tests' cold-vs-warm comparisons are over these bytes.
TEST(Json, EscapeAndParseGolden) {
  std::string all;  // every byte value once, in order
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  std::string all_escaped =
      "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
      "\\b\\t\\n\\u000b\\f\\r\\u000e\\u000f"
      "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
      "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
      " !\\\"#$%&'()*+,-./0123456789:;<=>?"
      "@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\\\]^_"
      "`abcdefghijklmnopqrstuvwxyz{|}~\x7f";
  for (int c = 0x80; c < 256; ++c) all_escaped += static_cast<char>(c);
  EXPECT_EQ(jsonEscape(all), all_escaped);
  EXPECT_EQ(Event("t").str("k", all).json(),
            "{\"type\":\"t\",\"k\":\"" + all_escaped + "\"}");
  EXPECT_EQ(Event(all).str(all, "v").json(),
            "{\"type\":\"" + all_escaped + "\",\"" + all_escaped +
                "\":\"v\"}");

  // Long plain runs, alone and split by one escape.
  const std::string plain(5000, 'a');
  EXPECT_EQ(jsonEscape(plain), plain);
  const std::string split = std::string(3000, 'x') + "\"" +
                            std::string(3000, '\xe9') + "\n";
  EXPECT_EQ(jsonEscape(split), std::string(3000, 'x') + "\\\"" +
                                   std::string(3000, '\xe9') + "\\n");
  EXPECT_EQ(Event("t").str("k", split).json(),
            "{\"type\":\"t\",\"k\":\"" + jsonEscape(split) + "\"}");

  // Adjacent escapes, at both ends and in the middle.
  const std::string adjacent = "\"\\\n\r\t\b\f\x01\x1f\"a\\\\b\x7f\x1f";
  const std::string adjacent_escaped =
      "\\\"\\\\\\n\\r\\t\\b\\f\\u0001\\u001f\\\"a\\\\\\\\b\x7f\\u001f";
  EXPECT_EQ(jsonEscape(adjacent), adjacent_escaped);
  EXPECT_EQ(jsonEscape(""), "");

  // Every builder escapes its key the same way.
  EXPECT_EQ(Event("t\"")
                .num("n\n", 1.5)
                .num("inf", HUGE_VAL)
                .integer("i\\", -7)
                .boolean("b\t", true)
                .boolean("f", false)
                .str("s\x01", "x")
                .numbers("m\"", {{"a\"", 2.0}, {"b", -0.25}})
                .json(),
            "{\"type\":\"t\\\"\",\"n\\n\":1.5,\"inf\":null,\"i\\\\\":-7,"
            "\"b\\t\":true,\"f\":false,\"s\\u0001\":\"x\","
            "\"m\\\"\":{\"a\\\"\":2,\"b\":-0.25}}");

  // The parser inverts the escaper byte for byte.
  JsonValue v;
  ASSERT_TRUE(parseJson("\"" + all_escaped + "\"", v));
  EXPECT_EQ(v.str, all);
  ASSERT_TRUE(parseJson("\"" + jsonEscape(split) + "\"", v));
  EXPECT_EQ(v.str, split);
  ASSERT_TRUE(parseJson("\"" + adjacent_escaped + "\"", v));
  EXPECT_EQ(v.str, adjacent);
  ASSERT_TRUE(parseJson("\"\\/\\u00e9\\u20AC\\u0041\"", v));
  EXPECT_EQ(v.str, "/\xc3\xa9\xe2\x82\xac" "A");

  // Error text and offsets.
  const auto error = [](const std::string& text) {
    JsonValue doc;
    std::string err;
    EXPECT_FALSE(parseJson(text, doc, &err)) << text;
    return err;
  };
  EXPECT_EQ(error("\"abc"), "unterminated string at offset 4");
  EXPECT_EQ(error("{\"k\":\"" + plain), "unterminated string at offset 5006");
  EXPECT_EQ(error("\"ab\\"), "truncated escape at offset 3");
  EXPECT_EQ(error("\"ab\\n\\"), "truncated escape at offset 5");
  EXPECT_EQ(error("\"\\u12"), "truncated \\u escape at offset 3");
  EXPECT_EQ(error("\"ab\\u00e"), "truncated \\u escape at offset 5");
  EXPECT_EQ(error("\"\\u12g4\""), "bad \\u escape at offset 3");
  EXPECT_EQ(error("\"a\\qb\""), "unknown escape at offset 4");
  EXPECT_EQ(error("{\"a\":\"b\" x"), "expected '}' at offset 9");
}

TEST(Event, NonFiniteNumbersSerializeAsNull) {
  const Event e = Event("t")
                      .num("nan", std::nan(""))
                      .num("inf", HUGE_VAL)
                      .num("ok", 2.5);
  JsonValue v;
  ASSERT_TRUE(parseJson(e.json(), v)) << e.json();
  ASSERT_NE(v.find("nan"), nullptr);
  EXPECT_TRUE(v.find("nan")->isNull());
  EXPECT_TRUE(v.find("inf")->isNull());
  EXPECT_DOUBLE_EQ(v.numberOr("ok", 0), 2.5);
}

TEST(Event, BuildersProduceParseableObjects) {
  const Event e = Event("search_eval")
                      .integer("eval", 42)
                      .num("runtime", 1.25e-6)
                      .str("machine", "snitch \"quoted\"")
                      .boolean("hit", true)
                      .numbers("by_scope", {{"/0:8", 0.5}, {"", 0.25}});
  JsonValue v;
  ASSERT_TRUE(parseJson(e.json(), v)) << e.json();
  EXPECT_EQ(v.stringOr("type", ""), "search_eval");
  EXPECT_DOUBLE_EQ(v.numberOr("eval", 0), 42);
  EXPECT_DOUBLE_EQ(v.numberOr("runtime", 0), 1.25e-6);
  EXPECT_EQ(v.stringOr("machine", ""), "snitch \"quoted\"");
  EXPECT_TRUE(v.boolOr("hit", false));
  const auto* scopes = v.find("by_scope");
  ASSERT_NE(scopes, nullptr);
  EXPECT_DOUBLE_EQ(scopes->numberOr("/0:8", 0), 0.5);
  EXPECT_DOUBLE_EQ(scopes->numberOr("", 0), 0.25);
}

TEST(Json, RoundTripSurvivesCommaDecimalLocale) {
  // The emitter and parser used to lean on printf/strtod, which honor
  // LC_NUMERIC: under a comma-decimal locale every fractional number in a
  // trace either serialized as "0,5" or parsed back truncated. Both sides
  // now use locale-free charconv, so the round-trip must be bit-exact no
  // matter what the host process set.
  const char* old = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = old ? old : "C";
  const char* chosen = nullptr;
  for (const char* name : {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8", "fr_FR"})
    if (std::setlocale(LC_NUMERIC, name)) {
      chosen = name;
      break;
    }
  if (chosen) {
    // Sanity: the locale really uses ',' — otherwise this proves nothing.
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", 0.5);
    EXPECT_STREQ(buf, "0,5") << chosen;
  } else {
    GTEST_LOG_(INFO) << "no comma-decimal locale installed; running in "
                     << saved;
  }
  const Event e =
      Event("t").num("half", 0.5).num("tiny", 6.1541e-05).num("third", 1.0 / 3.0);
  const std::string json = e.json();
  JsonValue v;
  // A locale-leaky emitter would print "0,5" here, which fails the parse; a
  // locale-leaky parser would truncate "0.5" at the '.'. Exact equality
  // catches both.
  ASSERT_TRUE(parseJson(json, v)) << json;
  EXPECT_EQ(v.numberOr("half", 0), 0.5);
  EXPECT_EQ(v.numberOr("tiny", 0), 6.1541e-05);
  EXPECT_EQ(v.numberOr("third", 0), 1.0 / 3.0);
  // The IR parser/printer pair (the other former strtod/printf site) must
  // round-trip canonically under the same locale: printed constants feed
  // canonicalHash, so a locale leak here silently splits memo tables.
  const auto p = kernels::makeSoftmax(4, 16);
  const auto back = ir::parseProgram(ir::printProgram(p));
  EXPECT_EQ(ir::canonicalText(back), ir::canonicalText(p));
  std::setlocale(LC_NUMERIC, saved.c_str());
}

TEST(Telemetry, InMemorySinkAccumulatesJsonl) {
  Telemetry t;
  t.emit(Event("a").integer("n", 1));
  t.emit(Event("b").integer("n", 2));
  EXPECT_EQ(t.events(), 2);
  const auto ls = lines(t.buffered());
  ASSERT_EQ(ls.size(), 2u);
  for (const auto& l : ls) {
    JsonValue v;
    EXPECT_TRUE(parseJson(l, v)) << l;
  }
}

TEST(Telemetry, FileSinkRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "/perfdojo_trace_test.jsonl";
  {
    auto t = Telemetry::toFile(path);
    t->emit(Event("x").num("v", 0.5));
    t->emit(Event("y").num("v", std::nan("")));
  }  // dtor flushes + closes
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  const auto ls = lines(content);
  ASSERT_EQ(ls.size(), 2u);
  JsonValue v;
  ASSERT_TRUE(parseJson(ls[1], v));
  EXPECT_EQ(v.stringOr("type", ""), "y");
  EXPECT_TRUE(v.find("v")->isNull());
}

// --- Breakdown invariants -------------------------------------------------

std::vector<const machines::Machine*> allMachines() {
  return {&machines::snitch(), &machines::xeon(), &machines::gh200(),
          &machines::mi300a()};
}

void expectBreakdownConsistent(const ir::Program& p,
                               const machines::Machine& m,
                               const std::string& what) {
  const double t = m.evaluate(p);
  const auto b = m.evaluateDetailed(p);
  ASSERT_TRUE(std::isfinite(t)) << what;
  // Components are a lossless decomposition of the scalar cost.
  EXPECT_NEAR(b.total(), t, 1e-9 * std::max(t, 1e-30))
      << what << ": components sum " << b.total() << " vs evaluate() " << t;
  // Per-scope attribution covers the same total.
  double scope_sum = 0;
  for (const auto& [path, v] : b.by_scope) {
    EXPECT_GE(v, 0) << what << " scope " << path;
    scope_sum += v;
  }
  EXPECT_NEAR(scope_sum, t, 1e-9 * std::max(t, 1e-30))
      << what << ": by_scope sum " << scope_sum << " vs evaluate() " << t;
  // No negative components.
  for (double c : {b.compute, b.pipeline_stall, b.memory, b.loop_overhead,
                   b.launch_overhead})
    EXPECT_GE(c, 0) << what;
}

TEST(Breakdown, SumsToEvaluateOnTable3) {
  for (const auto& k : kernels::table3()) {
    const auto p = k.build_small();
    for (const auto* m : allMachines())
      expectBreakdownConsistent(p, *m, k.label + " on " + m->name());
  }
}

TEST(Breakdown, SumsToEvaluateAfterHeuristicPass) {
  // Scheduled programs exercise the annotated-scope code paths (ssr/frep on
  // Snitch, :v/:p on CPU, :g/:b on GPU) that the unscheduled kernels never
  // reach.
  for (const char* label : {"softmax", "matmul", "layernorm_1", "bmm"}) {
    const auto* k = kernels::findKernel(label);
    ASSERT_NE(k, nullptr) << label;
    const auto p = k->build_small();
    for (const auto* m : allMachines()) {
      const auto h = search::heuristicPass(p, *m);
      expectBreakdownConsistent(h.current(), *m,
                                std::string(label) + " tuned on " + m->name());
    }
  }
}

TEST(Breakdown, SnitchMicroKernels) {
  for (const auto& k : kernels::snitchMicro()) {
    const auto p = k.build();
    expectBreakdownConsistent(p, machines::snitch(), k.label + " (snitch)");
    const auto h = search::heuristicPass(p, machines::snitch());
    expectBreakdownConsistent(h.current(), machines::snitch(),
                              k.label + " tuned (snitch)");
  }
}

// --- attributeHistory -----------------------------------------------------

TEST(AttributeHistory, ReplaysToPassResult) {
  const auto p = kernels::makeSoftmax(8, 64);
  const auto& m = machines::snitch();
  const auto h = search::heuristicPass(p, m);
  Telemetry sink;
  const auto steps = search::attributeHistory(h, m, &sink);
  ASSERT_EQ(steps.size(), h.size() + 1);
  EXPECT_EQ(steps.front().transform, "");
  EXPECT_DOUBLE_EQ(steps.front().cost, m.evaluate(h.original()));
  EXPECT_DOUBLE_EQ(steps.back().cost, m.evaluate(h.current()));
  EXPECT_EQ(sink.events(), static_cast<std::int64_t>(steps.size()));
  // Every emitted event parses and echoes the step cost.
  const auto ls = lines(sink.buffered());
  ASSERT_EQ(ls.size(), steps.size());
  for (std::size_t i = 0; i < ls.size(); ++i) {
    JsonValue v;
    ASSERT_TRUE(parseJson(ls[i], v)) << ls[i];
    EXPECT_EQ(v.stringOr("type", ""), "transform_step");
    EXPECT_NEAR(v.numberOr("cost", -1), steps[i].cost,
                1e-12 * std::max(steps[i].cost, 1e-30));
  }
}

// --- Trace determinism across thread counts -------------------------------

std::string deterministicTraceSlice(const std::string& jsonl) {
  // search_begin/search_end carry wall-clock and threading metadata; the
  // per-decision stream (search_eval, sa_step) must be bit-identical.
  std::string out;
  for (const auto& l : lines(jsonl)) {
    if (l.find("\"type\":\"search_eval\"") != std::string::npos ||
        l.find("\"type\":\"sa_step\"") != std::string::npos) {
      out += l;
      out += '\n';
    }
  }
  return out;
}

TEST(Telemetry, SearchTraceIndependentOfThreadCount) {
  const auto p = kernels::makeSoftmax(8, 64);
  for (const auto method :
       {search::SearchMethod::RandomSampling,
        search::SearchMethod::SimulatedAnnealing}) {
    for (const auto structure :
         {search::SpaceStructure::Edges, search::SpaceStructure::Heuristic}) {
      std::string traces[2];
      int i = 0;
      for (int threads : {1, 8}) {
        Telemetry sink;
        search::SearchConfig cfg;
        cfg.method = method;
        cfg.structure = structure;
        cfg.budget = 120;
        cfg.seed = 5;
        cfg.threads = threads;
        cfg.telemetry = &sink;
        (void)search::runSearch(p, machines::snitch(), cfg);
        traces[i++] = deterministicTraceSlice(sink.buffered());
      }
      EXPECT_FALSE(traces[0].empty())
          << search::searchMethodName(method) << "/"
          << search::spaceStructureName(structure);
      EXPECT_EQ(traces[0], traces[1])
          << search::searchMethodName(method) << "/"
          << search::spaceStructureName(structure);
    }
  }
}

TEST(Telemetry, SearchEmitsBeginEvalsEnd) {
  Telemetry sink;
  search::SearchConfig cfg;
  cfg.budget = 40;
  cfg.telemetry = &sink;
  const auto r =
      search::runSearch(kernels::makeSoftmax(8, 64), machines::xeon(), cfg);
  const auto ls = lines(sink.buffered());
  ASSERT_GE(ls.size(), 3u);
  JsonValue first, last;
  ASSERT_TRUE(parseJson(ls.front(), first));
  ASSERT_TRUE(parseJson(ls.back(), last));
  EXPECT_EQ(first.stringOr("type", ""), "search_begin");
  EXPECT_EQ(first.stringOr("machine", ""), "xeon");
  EXPECT_EQ(last.stringOr("type", ""), "search_end");
  EXPECT_DOUBLE_EQ(last.numberOr("best_runtime", -1), r.best_runtime);
  EXPECT_DOUBLE_EQ(last.numberOr("evals", -1),
                   static_cast<double>(r.evals));
  // Every search_end names its termination reason; a 40-eval budget on a
  // kernel with hundreds of neighbors is spent in full.
  EXPECT_EQ(last.stringOr("reason", ""), "budget_exhausted");
  EXPECT_EQ(last.stringOr("reason", ""),
            search::terminationReasonName(r.reason));
  // One search_eval line per recorded evaluation.
  std::int64_t evals = 0;
  for (const auto& l : ls)
    if (l.find("\"type\":\"search_eval\"") != std::string::npos) ++evals;
  EXPECT_EQ(evals, static_cast<std::int64_t>(r.evals));
}

TEST(Telemetry, TerminationReasonSpellingsAreStable) {
  // Trace consumers grep for these strings; they are part of the JSONL
  // contract shared by search_end, exact_end and rl_end.
  using search::TerminationReason;
  using search::terminationReasonName;
  EXPECT_STREQ(terminationReasonName(TerminationReason::BudgetExhausted),
               "budget_exhausted");
  EXPECT_STREQ(terminationReasonName(TerminationReason::SpaceExhausted),
               "space_exhausted");
  EXPECT_STREQ(terminationReasonName(TerminationReason::Stall), "stall");
}

TEST(Telemetry, EverySearchTierRunEndsWithAReason) {
  // All four stochastic tier configurations must close their trace with a
  // search_end carrying a known reason value.
  const auto p = kernels::makeSoftmax(4, 16);
  for (const auto method :
       {search::SearchMethod::RandomSampling,
        search::SearchMethod::SimulatedAnnealing}) {
    for (const auto structure :
         {search::SpaceStructure::Edges, search::SpaceStructure::Heuristic}) {
      Telemetry sink;
      search::SearchConfig cfg;
      cfg.method = method;
      cfg.structure = structure;
      cfg.budget = 25;
      cfg.telemetry = &sink;
      (void)search::runSearch(p, machines::snitch(), cfg);
      const auto ls = lines(sink.buffered());
      ASSERT_FALSE(ls.empty());
      JsonValue last;
      ASSERT_TRUE(parseJson(ls.back(), last));
      ASSERT_EQ(last.stringOr("type", ""), "search_end");
      const std::string reason = last.stringOr("reason", "");
      EXPECT_TRUE(reason == "budget_exhausted" ||
                  reason == "space_exhausted" || reason == "stall")
          << search::searchMethodName(method) << "/"
          << search::spaceStructureName(structure) << ": '" << reason << "'";
    }
  }
}

}  // namespace
}  // namespace perfdojo
