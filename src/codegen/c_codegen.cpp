#include "codegen/c_codegen.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "ir/printer.h"
#include "ir/walk.h"
#include "support/common.h"
#include "support/strings.h"

namespace perfdojo::codegen {

using ir::Buffer;
using ir::DType;
using ir::IndexExpr;
using ir::LoopAnno;
using ir::Node;
using ir::Operand;
using ir::Program;

namespace {

const char* cType(DType t) { return cTypeName(t); }

bool isF32(DType t) { return t == DType::F32 || t == DType::I32; }

std::string iterName(ir::NodeId id) { return "i" + std::to_string(id); }

std::string exprC(const IndexExpr& e) {
  switch (e.kind()) {
    case IndexExpr::Kind::Const:
      return std::to_string(e.constValue());
    case IndexExpr::Kind::Iter:
      return iterName(e.iterScope());
    case IndexExpr::Kind::Add:
      return "(" + exprC(e.lhs()) + " + " + exprC(e.rhs()) + ")";
    case IndexExpr::Kind::Sub:
      return "(" + exprC(e.lhs()) + " - " + exprC(e.rhs()) + ")";
    case IndexExpr::Kind::Mul:
      return "(" + exprC(e.lhs()) + " * " + exprC(e.rhs()) + ")";
    case IndexExpr::Kind::Div:
      return "(" + exprC(e.lhs()) + " / " + exprC(e.rhs()) + ")";
    case IndexExpr::Kind::Mod:
      return "(" + exprC(e.lhs()) + " % " + exprC(e.rhs()) + ")";
  }
  fail("exprC: bad kind");
}

/// Per-program emission context shared by the C and CUDA back-ends.
class Emitter {
 public:
  explicit Emitter(const Program& p) : p_(p) {
    for (const auto& b : p_.buffers) {
      std::vector<std::int64_t> strides(b.rank(), 0);
      std::int64_t s = 1;
      for (std::size_t i = b.rank(); i-- > 0;) {
        if (b.materialized[i]) {
          strides[i] = s;
          s *= b.shape[i];
        }
      }
      strides_[b.name] = strides;
      elems_[b.name] = s;
      for (const auto& a : b.arrays) {
        if (p_.isExternal(a)) storage_[a] = a;  // function parameter
        else storage_[a] = "buf_" + b.name;
      }
    }
    findPrivateBuffers();
  }

  const Program& p() const { return p_; }

  std::string accessC(const ir::Access& a) const {
    const Buffer* b = p_.bufferOfArray(a.array);
    const auto& strides = strides_.at(b->name);
    std::string off;
    for (std::size_t i = 0; i < a.idx.size(); ++i) {
      if (strides[i] == 0) continue;
      std::string term = exprC(a.idx[i]);
      if (strides[i] != 1) term += " * " + std::to_string(strides[i]);
      off += off.empty() ? term : (" + " + term);
    }
    if (off.empty()) off = "0";
    return storage_.at(a.array) + "[" + off + "]";
  }

  std::string operandC(const Operand& in) const {
    switch (in.kind) {
      case Operand::Kind::Array:
        return accessC(in.access);
      case Operand::Kind::Const: {
        const Buffer* any = nullptr;
        (void)any;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", in.cst);
        std::string s = buf;
        if (s == "inf") s = "INFINITY";
        if (s == "-inf") s = "-INFINITY";
        return s;
      }
      case Operand::Kind::Iter:
        return "(double)" + exprC(in.iter_expr);
    }
    fail("operandC: bad kind");
  }

  std::string opStmt(const Node& op) const {
    const Buffer* b = p_.bufferOfArray(op.out.array);
    const bool f32 = isF32(b->dtype);
    auto fn = [&](const char* base) {
      return std::string(base) + (f32 ? "f" : "");
    };
    std::vector<std::string> a;
    for (const auto& in : op.ins) a.push_back(operandC(in));
    std::string rhs;
    switch (op.op) {
      case ir::OpCode::Mov: rhs = a[0]; break;
      case ir::OpCode::Neg: rhs = "-(" + a[0] + ")"; break;
      case ir::OpCode::Exp: rhs = fn("exp") + "(" + a[0] + ")"; break;
      case ir::OpCode::Log: rhs = fn("log") + "(" + a[0] + ")"; break;
      case ir::OpCode::Sqrt: rhs = fn("sqrt") + "(" + a[0] + ")"; break;
      case ir::OpCode::Rsqrt:
        rhs = (f32 ? std::string("1.0f") : std::string("1.0")) + " / " +
              fn("sqrt") + "(" + a[0] + ")";
        break;
      case ir::OpCode::Relu:
        rhs = fn("fmax") + "(" + a[0] + ", 0)";
        break;
      case ir::OpCode::Sigmoid:
        rhs = (f32 ? std::string("1.0f") : std::string("1.0")) + " / (1 + " +
              fn("exp") + "(-(" + a[0] + ")))";
        break;
      case ir::OpCode::Tanh: rhs = fn("tanh") + "(" + a[0] + ")"; break;
      case ir::OpCode::Abs: rhs = fn("fabs") + "(" + a[0] + ")"; break;
      case ir::OpCode::Add: rhs = a[0] + " + " + a[1]; break;
      case ir::OpCode::Sub: rhs = a[0] + " - " + a[1]; break;
      case ir::OpCode::Mul: rhs = a[0] + " * " + a[1]; break;
      case ir::OpCode::Div: rhs = a[0] + " / " + a[1]; break;
      case ir::OpCode::Max: rhs = fn("fmax") + "(" + a[0] + ", " + a[1] + ")"; break;
      case ir::OpCode::Min: rhs = fn("fmin") + "(" + a[0] + ", " + a[1] + ")"; break;
      case ir::OpCode::Fma:
        rhs = a[0] + " * " + a[1] + " + " + a[2];
        break;
    }
    return accessC(op.out) + " = " + rhs + ";";
  }

  /// The function-scope declarations: every internal buffer that no
  /// parallel loop privatizes.
  std::string internalDecls() const {
    std::string out;
    for (const auto& b : p_.buffers) {
      if (isExternal(b) || privatized_.count(b.name) != 0) continue;
      out += "  static " + bufferDecl(b, "");
    }
    return out;
  }

  /// The declarations at the top of parallel loop `scope`'s body: one
  /// zero-filled array per buffer private to it.
  std::string privateDecls(ir::NodeId scope, const std::string& pad) const {
    std::string out;
    const auto it = private_.find(scope);
    if (it == private_.end()) return out;
    for (const Buffer* b : it->second) out += pad + bufferDecl(*b, " = {0}");
    return out;
  }

 private:
  bool isExternal(const Buffer& b) const {
    for (const auto& a : b.arrays)
      if (p_.isExternal(a)) return true;
    return false;
  }

  std::string bufferDecl(const Buffer& b, const char* init) const {
    return std::string(cType(b.dtype)) + " buf_" + b.name + "[" +
           std::to_string(std::max<std::int64_t>(elems_.at(b.name), 1)) +
           "]" + init + ";  /* " + memSpaceName(b.space) + " */\n";
  }

  /// An internal buffer is private to a parallel loop S when every access
  /// to it lies under S and none indexes a materialized dimension by S's
  /// iterator: every iteration of S then touches the same storage, which a
  /// function-scope array would share between the threads running those
  /// iterations (partial_reduce's scratch under a parallelized loop is the
  /// common case). Each iteration gets its own copy instead. Loops nested
  /// in S run on the thread of S's iteration, so the outermost parallel
  /// loop is the one that privatizes.
  void findPrivateBuffers() {
    struct Use {
      ir::NodeId scope = ir::kInvalidNode;  // the outermost enclosing :p
      bool ok = true;
    };
    std::map<const Buffer*, Use> uses;
    ir::NodeId par = ir::kInvalidNode;
    auto note = [&](const ir::Access& a) {
      const Buffer* b = p_.bufferOfArray(a.array);
      if (b == nullptr || isExternal(*b)) return;
      const auto [it, first] = uses.try_emplace(b);
      Use& u = it->second;
      if (first) u.scope = par;
      if (par == ir::kInvalidNode || u.scope != par) u.ok = false;
      for (std::size_t d = 0; u.ok && d < a.idx.size(); ++d)
        if (b->materialized[d] && a.idx[d].usesIter(par)) u.ok = false;
    };
    std::function<void(const Node&)> walk = [&](const Node& n) {
      if (n.isOp()) {
        note(n.out);
        for (const auto& in : n.ins)
          if (in.kind == Operand::Kind::Array) note(in.access);
        return;
      }
      const bool opens = par == ir::kInvalidNode &&
                         n.anno == LoopAnno::Parallel && n.id != p_.root.id;
      if (opens) par = n.id;
      for (const auto& c : n.children) walk(c);
      if (opens) par = ir::kInvalidNode;
    };
    walk(p_.root);
    for (const auto& b : p_.buffers) {
      const auto it = uses.find(&b);
      if (it == uses.end() || !it->second.ok) continue;
      private_[it->second.scope].push_back(&b);
      privatized_.insert(b.name);
    }
  }

  const Program& p_;
  std::map<std::string, std::vector<std::int64_t>> strides_;
  std::map<std::string, std::int64_t> elems_;
  std::map<std::string, std::string> storage_;
  std::map<ir::NodeId, std::vector<const Buffer*>> private_;  // by :p scope
  std::set<std::string> privatized_;
};

void emitNodeC(const Emitter& em, const Node& n, int indent, std::string& out,
               bool is_root) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  if (n.isOp()) {
    out += pad + em.opStmt(n) + "\n";
    return;
  }
  if (is_root) {
    for (const auto& c : n.children) emitNodeC(em, c, indent, out, false);
    return;
  }
  switch (n.anno) {
    case LoopAnno::Parallel:
      out += pad + "#pragma omp parallel for\n";
      break;
    case LoopAnno::Vector:
      out += pad + "#pragma omp simd\n";
      break;
    case LoopAnno::Unroll:
      out += pad + "#pragma GCC unroll " + std::to_string(n.extent) + "\n";
      break;
    case LoopAnno::Ssr:
      out += pad + "/* snitch: ssr-streamed loop */\n";
      break;
    case LoopAnno::Frep:
      out += pad + "/* snitch: ssr + frep hardware loop */\n";
      break;
    case LoopAnno::GpuGrid:
      out += pad + "/* gpu: grid dimension */\n";
      break;
    case LoopAnno::GpuBlock:
      out += pad + "/* gpu: block dimension */\n";
      break;
    case LoopAnno::GpuWarp:
      out += pad + "/* gpu: warp lanes */\n";
      break;
    default:
      break;
  }
  const std::string it = iterName(n.id);
  out += pad + "for (int64_t " + it + " = 0; " + it + " < " +
         std::to_string(n.extent) + "; ++" + it + ") {\n";
  out += em.privateDecls(n.id, pad + "  ");
  for (const auto& c : n.children) emitNodeC(em, c, indent + 1, out, false);
  out += pad + "}\n";
}

std::string paramList(const Program& p) {
  std::vector<std::string> params;
  for (const auto& in : p.inputs) {
    const Buffer* b = p.bufferOfArray(in);
    params.push_back("const " + std::string(cType(b->dtype)) + "* " + in);
  }
  for (const auto& o : p.outputs) {
    const Buffer* b = p.bufferOfArray(o);
    params.push_back(std::string(cType(b->dtype)) + "* " + o);
  }
  return join(params, ", ");
}

}  // namespace

const char* cTypeName(DType t) {
  switch (t) {
    case DType::F32: return "float";
    case DType::F64: return "double";
    case DType::I32: return "int32_t";
    case DType::I64: return "int64_t";
  }
  fail("cTypeName: bad dtype");
}

std::string cSignature(const Program& p, const std::string& fn_name) {
  const std::string name = fn_name.empty() ? p.name : fn_name;
  return "void " + name + "(" + paramList(p) + ")";
}

std::string generateC(const Program& p, const std::string& fn_name) {
  Emitter em(p);
  std::string out;
  out += "/* Generated by PerfDojo from kernel '" + p.name + "'. */\n";
  out += "#include <math.h>\n#include <stdint.h>\n\n";
  out += cSignature(p, fn_name) + " {\n";
  out += em.internalDecls();
  std::string body;
  emitNodeC(em, p.root, 1, body, true);
  out += body;
  out += "}\n";
  return out;
}

std::string generateCuda(const Program& p, const std::string& fn_name) {
  const std::string name = fn_name.empty() ? p.name : fn_name;
  Emitter em(p);
  std::string out;
  out += "/* CUDA-style rendering of kernel '" + p.name +
         "' (display-oriented). */\n\n";

  // Collect kernels (grid-annotated subtrees) and host ops.
  int kernel_idx = 0;
  std::string host;
  std::function<void(const Node&, int)> walk = [&](const Node& n, int indent) {
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    if (n.isOp()) {
      host += pad + em.opStmt(n) + "\n";
      return;
    }
    if (n.anno == LoopAnno::GpuGrid) {
      // Emit a __global__ kernel for this subtree.
      const int idx = kernel_idx++;
      std::string k = "__global__ void " + name + "_k" + std::to_string(idx) +
                      "(/* buffers */) {\n";
      std::vector<std::pair<std::string, std::int64_t>> grid_dims, block_dims;
      std::function<void(const Node&, int)> emitK = [&](const Node& m, int ind) {
        const std::string kp(static_cast<std::size_t>(ind) * 2, ' ');
        if (m.isOp()) {
          k += kp + em.opStmt(m) + "\n";
          return;
        }
        const char* axes[3] = {"x", "y", "z"};
        if (m.anno == LoopAnno::GpuGrid && grid_dims.size() < 3) {
          k += kp + "const int64_t " + iterName(m.id) + " = blockIdx." +
               axes[grid_dims.size()] + ";  /* 0.." + std::to_string(m.extent) +
               " */\n";
          grid_dims.emplace_back(iterName(m.id), m.extent);
          for (const auto& c : m.children) emitK(c, ind);
          return;
        }
        if ((m.anno == LoopAnno::GpuBlock || m.anno == LoopAnno::GpuWarp) &&
            block_dims.size() < 3) {
          k += kp + "const int64_t " + iterName(m.id) + " = threadIdx." +
               axes[block_dims.size()] + ";  /* 0.." + std::to_string(m.extent) +
               " */\n";
          block_dims.emplace_back(iterName(m.id), m.extent);
          for (const auto& c : m.children) emitK(c, ind);
          return;
        }
        if (m.anno == LoopAnno::Vector) {
          k += kp + "/* " + std::to_string(m.extent * 4) +
               "-byte vector load (float" + std::to_string(m.extent) + ") */\n";
        }
        const std::string it = iterName(m.id);
        k += kp + "for (int64_t " + it + " = 0; " + it + " < " +
             std::to_string(m.extent) + "; ++" + it + ") {\n";
        for (const auto& c : m.children) emitK(c, ind + 1);
        k += kp + "}\n";
      };
      emitK(n, 1);
      k += "}\n\n";
      out += k;
      std::string grid = "1", block = "1";
      if (!grid_dims.empty()) {
        grid.clear();
        for (std::size_t i = 0; i < grid_dims.size(); ++i)
          grid += (i ? ", " : "") + std::to_string(grid_dims[i].second);
      }
      if (!block_dims.empty()) {
        block.clear();
        for (std::size_t i = 0; i < block_dims.size(); ++i)
          block += (i ? ", " : "") + std::to_string(block_dims[i].second);
      }
      host += pad + name + "_k" + std::to_string(idx) + "<<<dim3(" + grid +
              "), dim3(" + block + ")>>>(/* buffers */);\n";
      return;
    }
    if (n.id != p.root.id) {
      const std::string it = iterName(n.id);
      host += pad + "for (int64_t " + it + " = 0; " + it + " < " +
              std::to_string(n.extent) + "; ++" + it + ") {\n";
      for (const auto& c : n.children) walk(c, indent + 1);
      host += pad + "}\n";
      return;
    }
    for (const auto& c : n.children) walk(c, indent);
  };
  walk(p.root, 1);
  out += "void " + name + "(/* host entry */) {\n" + host + "}\n";
  return out;
}

}  // namespace perfdojo::codegen
