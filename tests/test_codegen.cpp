// C code generation, including an end-to-end integration test: compile the
// generated C with the system compiler, dlopen it, and compare against the
// reference interpreter.
#include <dlfcn.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <gtest/gtest.h>

#include "codegen/c_codegen.h"
#include "interp/interpreter.h"
#include "kernels/kernels.h"
#include "search/pass.h"
#include "machines/machine.h"

namespace perfdojo::codegen {
namespace {

TEST(Codegen, EmitsCompilableLookingC) {
  const auto p = kernels::makeSoftmax(4, 8);
  const std::string c = generateC(p);
  EXPECT_NE(c.find("void softmax(const float* x, float* y)"), std::string::npos);
  EXPECT_NE(c.find("for (int64_t"), std::string::npos);
  EXPECT_NE(c.find("expf("), std::string::npos);
  EXPECT_NE(c.find("static float buf_t"), std::string::npos);
}

TEST(Codegen, AnnotationsBecomePragmas) {
  auto h = search::heuristicPass(kernels::makeAdd(64, 64), machines::xeon());
  const std::string c = generateC(h.current());
  EXPECT_NE(c.find("#pragma omp parallel for"), std::string::npos);
  EXPECT_NE(c.find("#pragma omp simd"), std::string::npos);
}

TEST(Codegen, ReusedDimCollapsesStorage) {
  auto h = search::naivePass(kernels::makeSoftmax(4, 8), machines::xeon());
  const std::string c = generateC(h.current());
  // mx is reduced to one scalar slot after fusion + reuse.
  EXPECT_NE(c.find("static float buf_mx[1]"), std::string::npos);
}

TEST(Codegen, ScratchUnderParallelLoopIsPerIteration) {
  // The expert pass parallelizes softmax's rows and then partial-reduces
  // each row into a scratch buffer that the row iterator does not index.
  // Declared once at function scope, the OpenMP threads would share it; it
  // must be declared in the parallel loop's body instead. Buffers indexed
  // by the row iterator stay at function scope.
  auto h = search::heuristicPass(kernels::findKernel("softmax")->build(),
                                 machines::xeon());
  const std::string c = generateC(h.current());
  const auto par = c.find("#pragma omp parallel for");
  ASSERT_NE(par, std::string::npos) << c;
  const auto body = c.find("{\n", par);
  const auto part = c.find("float buf___part");
  ASSERT_NE(part, std::string::npos) << c;
  EXPECT_GT(part, body) << c;
  EXPECT_EQ(c.find("static float buf___part"), std::string::npos) << c;
  EXPECT_NE(c.find("] = {0};  /* stack */"), std::string::npos) << c;
  EXPECT_NE(c.find("static float buf_mx["), std::string::npos) << c;
  EXPECT_LT(c.find("static float buf_mx["), par) << c;
}

TEST(Codegen, CudaRenderingShowsGridAndBlock) {
  auto h = search::greedyPass(kernels::makeMul(8, 2048), machines::gh200());
  const std::string cu = generateCuda(h.current());
  EXPECT_NE(cu.find("__global__"), std::string::npos);
  EXPECT_NE(cu.find("blockIdx.x"), std::string::npos);
  EXPECT_NE(cu.find("<<<"), std::string::npos);
}

class CompileAndRunP : public ::testing::TestWithParam<std::string> {};

TEST_P(CompileAndRunP, GeneratedCMatchesInterpreter) {
  const auto* k = kernels::findKernel(GetParam());
  ASSERT_NE(k, nullptr);
  // Use a transformed variant so codegen covers annotations + reuse, not
  // just plain loops.
  auto h = search::heuristicPass(k->build_small(), machines::xeon());
  const ir::Program& p = h.current();

  const std::string src = generateC(p, "kernel_fn");
  const std::string dir = ::testing::TempDir();
  const std::string c_path = dir + "/pd_" + GetParam() + ".c";
  const std::string so_path = dir + "/pd_" + GetParam() + ".so";
  {
    std::ofstream f(c_path);
    f << src;
  }
  const std::string cmd = "cc -O2 -fopenmp -shared -fPIC -o " + so_path + " " +
                          c_path + " -lm 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buf[256];
  while (fgets(buf, sizeof(buf), pipe)) output += buf;
  const int rc = pclose(pipe);
  ASSERT_EQ(rc, 0) << "compiler said:\n" << output << "\nsource:\n" << src;

  void* so = dlopen(so_path.c_str(), RTLD_NOW);
  ASSERT_NE(so, nullptr) << dlerror();
  void* sym = dlsym(so, "kernel_fn");
  ASSERT_NE(sym, nullptr);

  // Reference run.
  auto ref = interp::runWithRandomInputs(p, 99);

  // Marshal float buffers in input order, call, compare outputs.
  std::vector<std::vector<float>> storage;
  std::vector<void*> args;
  for (const auto& in : p.inputs) {
    const auto& t = ref.mem.byArray(in);
    std::vector<float> v(t.data().begin(), t.data().end());
    storage.push_back(std::move(v));
    args.push_back(storage.back().data());
  }
  std::vector<std::size_t> out_index;
  for (const auto& out : p.outputs) {
    const auto& t = ref.mem.byArray(out);
    storage.push_back(std::vector<float>(t.data().size(), 0.0f));
    out_index.push_back(storage.size() - 1);
    args.push_back(storage.back().data());
  }
  // Dispatch by arity (kernels here have <= 6 pointer params).
  using F1 = void (*)(void*);
  using F2 = void (*)(void*, void*);
  using F3 = void (*)(void*, void*, void*);
  using F4 = void (*)(void*, void*, void*, void*);
  using F5 = void (*)(void*, void*, void*, void*, void*);
  using F6 = void (*)(void*, void*, void*, void*, void*, void*);
  switch (args.size()) {
    case 1: reinterpret_cast<F1>(sym)(args[0]); break;
    case 2: reinterpret_cast<F2>(sym)(args[0], args[1]); break;
    case 3: reinterpret_cast<F3>(sym)(args[0], args[1], args[2]); break;
    case 4: reinterpret_cast<F4>(sym)(args[0], args[1], args[2], args[3]); break;
    case 5: reinterpret_cast<F5>(sym)(args[0], args[1], args[2], args[3], args[4]); break;
    case 6: reinterpret_cast<F6>(sym)(args[0], args[1], args[2], args[3], args[4], args[5]); break;
    default: FAIL() << "unexpected arity " << args.size();
  }

  for (std::size_t oi = 0; oi < p.outputs.size(); ++oi) {
    const auto& t = ref.mem.byArray(p.outputs[oi]);
    const auto& got = storage[out_index[oi]];
    ASSERT_EQ(got.size(), t.data().size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const double expect = t.data()[i];
      EXPECT_NEAR(got[i], expect,
                  1e-3 * std::max(1.0, std::abs(expect)))
          << p.outputs[oi] << "[" << i << "]";
    }
  }
  // No dlclose: unloading after OpenMP regions ran orphans libgomp TLS
  // allocations, which LeakSanitizer reports under PERFDOJO_SANITIZE=address.
  (void)so;
}

INSTANTIATE_TEST_SUITE_P(Kernels, CompileAndRunP,
                         ::testing::Values("softmax", "matmul", "add",
                                           "reducemean", "rmsnorm"));

}  // namespace
}  // namespace perfdojo::codegen
