// gcs_diff -- cell-by-cell comparison of two gcs_run result trees.
//
//   gcs_diff results/churn /tmp/churn-baseline
//   gcs_diff A B --strict                 # CI gate: nonzero on any diff
//   gcs_diff A B --tol=1e-9 --timing
//
// Cells match by label; counters/strings compare exactly, float physics
// fields within --tol, and the machine-describing fields (wall_ms,
// events_per_sec, arena_bytes, peak_rss_kb) are ignored unless --timing
// is given (they describe the host and store layout, not the
// trajectory, so a --jobs N tree diffs clean against a --jobs 1
// baseline).  Exit codes:
// 0 trees match (or differences found without --strict), 1 differences
// under --strict, 2 bad usage or unreadable tree.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "cli/diff.hpp"

namespace {

constexpr const char kUsage[] = R"(gcs_diff -- compare two gcs_run result trees cell by cell

usage: gcs_diff TREE_A TREE_B [options]
       gcs_diff FILE_A FILE_B [options]

When both arguments are regular .json files (e.g. ENVELOPE_baseline.json
vs a regenerated envelope fit), the documents are compared directly
under the same field rules as tree cells.

options:
  --tol X           absolute tolerance for float physics fields
                    (default 0: exact); counters always compare exactly
  --timing          also compare the machine fields wall_ms /
                    events_per_sec / arena_bytes / peak_rss_kb (off by
                    default; they vary across runs and store layouts)
  --strict          exit 1 on any difference (missing/extra cells, field
                    diffs, schema-version mismatches)
  --max-diffs N     cap on printed difference lines (default 64)
  --quiet           print only the summary line
  --help            this text

exit codes: 0 match (or non-strict), 1 differences under --strict,
2 bad usage or unreadable tree
)";

bool parse_number(const std::string& value, double* out) {
  char* end = nullptr;
  *out = std::strtod(value.c_str(), &end);
  return !value.empty() && end == value.c_str() + value.size();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> trees;
  gcs::cli::DiffOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (arg == "--strict") {
      options.strict = true;
      continue;
    }
    if (arg == "--timing") {
      options.compare_timing = true;
      continue;
    }
    if (arg == "--quiet") {
      options.quiet = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      trees.push_back(arg);
      continue;
    }
    // --key=value or --key value.
    std::string key = arg.substr(2);
    std::string value;
    if (const std::size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::cerr << "gcs_diff: option --" << key << " needs a value\n";
      return 2;
    }
    if (key == "tol") {
      if (!parse_number(value, &options.tolerance) || options.tolerance < 0) {
        std::cerr << "gcs_diff: --tol wants a number >= 0, got '" << value
                  << "'\n";
        return 2;
      }
    } else if (key == "max-diffs") {
      double parsed = 0.0;
      if (!parse_number(value, &parsed) || parsed < 0) {
        std::cerr << "gcs_diff: --max-diffs wants an integer >= 0, got '"
                  << value << "'\n";
        return 2;
      }
      options.max_report = static_cast<std::size_t>(parsed);
    } else {
      std::cerr << "gcs_diff: unknown option --" << key << "\n" << kUsage;
      return 2;
    }
  }

  if (trees.size() != 2) {
    std::cerr << "gcs_diff: expected exactly two tree directories "
                 "(or two .json files)\n\n"
              << kUsage;
    return 2;
  }

  const bool file_a = std::filesystem::is_regular_file(trees[0]);
  const bool file_b = std::filesystem::is_regular_file(trees[1]);
  if (file_a != file_b) {
    std::cerr << "gcs_diff: cannot compare a file with a tree ('" << trees[0]
              << "' vs '" << trees[1] << "')\n";
    return 2;
  }

  try {
    return file_a
               ? gcs::cli::diff_files(trees[0], trees[1], options, std::cout)
               : gcs::cli::diff_trees(trees[0], trees[1], options, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "gcs_diff: " << e.what() << "\n";
    return 2;
  }
}
