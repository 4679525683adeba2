#include "ir/canonical.h"

#include "ir/printer.h"
#include "support/common.h"

namespace perfdojo::ir {

std::string canonicalText(const Program& p) {
  std::string out;
  appendHeader(out, p, /*sort_buffers=*/true);
  appendTree(out, p);
  return out;
}

std::uint64_t canonicalHash(const Program& p) { return fnv1a(canonicalText(p)); }

bool canonicallyEqual(const Program& a, const Program& b) {
  return canonicalText(a) == canonicalText(b);
}

}  // namespace perfdojo::ir
