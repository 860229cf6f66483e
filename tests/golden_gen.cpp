// Regenerates the golden snapshot corpus from the recipe in
// golden_recipe.h:
//
//   golden_gen <output-dir>
//
// writes single-<case>.snap for every single-enclave case, multi.snap and
// the chain-dfpstop.snap chain, in the snapshot format this build writes
// (the only one it reads) — see tests/golden/README.md.
#include <cstddef>
#include <cstdio>
#include <string>

#include "golden_recipe.h"
#include "snapshot/codec.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: golden_gen <output-dir>\n");
    return 2;
  }
  using namespace sgxpl;
  const std::string dir = argv[1];
  for (const std::string& name : golden::single_case_names()) {
    const std::string path = dir + "/single-" + name + ".snap";
    snapshot::write_file_atomic(path, golden::make_single(name));
    std::printf("wrote %s\n", path.c_str());
  }
  const std::string multi_path = dir + "/multi.snap";
  snapshot::write_file_atomic(multi_path, golden::make_multi());
  std::printf("wrote %s\n", multi_path.c_str());
  // Chain golden: named so `<base>.delta-N` matches the runtime layout —
  // verify-chain and restore_chain_from_files work on the corpus directly.
  const std::string chain_base = dir + "/chain-dfpstop.snap";
  const auto chain = golden::make_chain();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const std::string path =
        i == 0 ? chain_base : snapshot::delta_path(chain_base, i);
    snapshot::write_file_atomic(path, chain[i]);
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
