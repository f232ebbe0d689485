// fms_analyze CLI — runs the cross-file semantic checks over the given
// files/directories and prints findings as
//   path:line: [check] message
// Exit status: 0 clean, 1 findings, 2 usage or IO error.
//
// Registered as the `analyze` ctest over src/, tests/, bench/, examples/
// and tools/, so a plain `ctest` run fails on a salt collision or an
// undocumented metric key.
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "tools/fms_analyze/analyze.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: fms_analyze [--list-checks]\n"
               "                   [--registry <salt_registry.txt>]\n"
               "                   [--design <DESIGN.md>]\n"
               "                   <file-or-dir>...\n"
               "       suppress a finding in place with: "
               "// fms-analyze: allow(<check>)  -- <reason>\n");
}

}  // namespace

int main(int argc, char** argv) {
  fms::analyze::Options opts;
  opts.salt_registry_path = "tools/salt_registry.txt";
  opts.design_doc_path = "DESIGN.md";
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-checks") {
      for (const auto& c : fms::analyze::checks()) {
        std::printf("%-22s %s\n", c.id, c.summary);
      }
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    if (arg == "--registry" || arg == "--design") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fms_analyze: %s needs a path\n", arg.c_str());
        usage();
        return 2;
      }
      (arg == "--registry" ? opts.salt_registry_path : opts.design_doc_path) =
          argv[++i];
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "fms_analyze: unknown flag %s\n", arg.c_str());
      usage();
      return 2;
    }
    roots.push_back(arg);
  }
  if (roots.empty()) {
    usage();
    return 2;
  }

  std::vector<fms::analyze::Finding> findings;
  try {
    findings = fms::analyze::analyze_tree(roots, opts);
  } catch (const fms::CheckError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  for (const auto& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.path.c_str(), f.line, f.check.c_str(),
                f.message.c_str());
  }
  if (!findings.empty()) {
    std::printf("fms_analyze: %zu finding(s)\n", findings.size());
    return 1;
  }
  return 0;
}
