// Documentation linter — the CI docs gate.
//
//   ./docs_check --root /path/to/repo [--flags-manifest flags.txt]
//
// Two checks over every tracked *.md file (build trees, .git, and the
// driver-owned PAPER/PAPERS/ISSUE/CHANGES/SNIPPETS files are skipped):
//
//   * dead links: every relative `[text](target)` must resolve to a file
//     or directory inside the repo (http(s)/mailto/anchor-only links and
//     paths that escape the root, e.g. GitHub badge URLs, are ignored);
//   * phantom flags: every `--flag-name` token mentioned in the docs must
//     be registered by some binary. The manifest is free-form text — CI
//     concatenates the `--help` output of every built binary — and
//     docs_check extracts the `--token`s from it. A doc token ending in
//     `-` (e.g. `--faults-*` wildcards) passes if any manifest flag starts
//     with it. A tiny built-in allowlist covers external tools (ctest).
//
// Without --flags-manifest only the link check runs (useful pre-build).
// Exits 0 when clean, 1 with one line per finding otherwise.
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/flags.h"

namespace fs = std::filesystem;

namespace {

int g_failures = 0;

void fail(const fs::path& file, int line, const std::string& message) {
  std::fprintf(stderr, "FAIL %s:%d: %s\n", file.string().c_str(), line,
               message.c_str());
  ++g_failures;
}

bool skip_dir(const fs::path& dir) {
  const std::string name = dir.filename().string();
  return name == ".git" || name == ".claude" || name == "third_party" ||
         name.rfind("build", 0) == 0;
}

bool skip_file(const fs::path& file) {
  static const std::set<std::string> driver_owned = {
      "ISSUE.md", "CHANGES.md", "PAPER.md", "PAPERS.md", "SNIPPETS.md"};
  return driver_owned.count(file.filename().string()) > 0;
}

bool flag_char(char c) {
  return (std::islower(static_cast<unsigned char>(c)) != 0) ||
         (std::isdigit(static_cast<unsigned char>(c)) != 0) || c == '-';
}

// Pulls every `--token` out of a line of text.
std::vector<std::string> extract_flag_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  for (std::size_t i = 0; i + 2 < line.size(); ++i) {
    if (line[i] != '-' || line[i + 1] != '-') continue;
    if (i > 0 && (flag_char(line[i - 1]) ||
                  std::isalpha(static_cast<unsigned char>(line[i - 1])))) {
      continue;  // mid-word or part of a longer dash run
    }
    std::size_t j = i + 2;
    std::string token;
    while (j < line.size() && flag_char(line[j])) token += line[j++];
    // Require a real name: starts with a letter, not a `---` rule or an
    // `--` em-dash.
    if (!token.empty() &&
        std::islower(static_cast<unsigned char>(token[0])) != 0) {
      tokens.push_back(token);
    }
    i = j;
  }
  return tokens;
}

void check_file(const fs::path& file, const fs::path& root,
                const std::set<std::string>& known_flags, bool check_flags) {
  // External-tool flags the docs may legitimately mention (cmake, ctest).
  static const std::set<std::string> allowlist = {"output-on-failure",
                                                  "test-dir", "help", "build"};
  std::ifstream in(file);
  if (!in) {
    fail(file, 0, "cannot open");
    return;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;

    // Link check: every `](target)` on the line.
    for (std::size_t pos = line.find("]("); pos != std::string::npos;
         pos = line.find("](", pos + 2)) {
      const std::size_t start = pos + 2;
      const std::size_t end = line.find(')', start);
      if (end == std::string::npos) break;
      std::string target = line.substr(start, end - start);
      if (const std::size_t space = target.find(' ');
          space != std::string::npos) {
        target = target.substr(0, space);  // drop a link title
      }
      if (const std::size_t anchor = target.find('#');
          anchor != std::string::npos) {
        target = target.substr(0, anchor);
      }
      if (target.empty() || target.find("://") != std::string::npos ||
          target.rfind("mailto:", 0) == 0) {
        continue;
      }
      const fs::path resolved =
          fs::weakly_canonical(file.parent_path() / target);
      // Paths that climb out of the repo (GitHub badge links like
      // ../../actions/...) only mean something on the forge — skip them.
      const auto rel = fs::relative(resolved, root);
      if (rel.empty() || rel.begin()->string() == "..") continue;
      if (!fs::exists(resolved)) {
        fail(file, line_no, "dead link: " + target);
      }
    }

    // Flag check (code fences and prose alike — a stale flag in an example
    // command is exactly the bug this hunts).
    if (!check_flags) continue;
    for (const std::string& token : extract_flag_tokens(line)) {
      if (allowlist.count(token) > 0) continue;
      if (!token.empty() && token.back() == '-') {
        // Prefix form (`--faults-*`): any registered flag may match it.
        bool matched = false;
        for (const std::string& flag : known_flags) {
          if (flag.rfind(token, 0) == 0) {
            matched = true;
            break;
          }
        }
        if (!matched) fail(file, line_no, "unknown flag prefix: --" + token);
        continue;
      }
      if (known_flags.count(token) == 0) {
        fail(file, line_no, "flag not registered by any binary: --" + token);
      }
    }
  }
}

}  // namespace

int run(int argc, char** argv) {
  fedsu::util::Flags flags;
  flags.add_string("root", ".", "repository root to scan")
      .add_string("flags-manifest", "",
                  "text containing every registered --flag (e.g. the "
                  "concatenated --help of all binaries); empty skips the "
                  "flag check");
  if (!flags.parse(argc, argv)) return 0;

  const fs::path root = fs::weakly_canonical(flags.get_string("root"));
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "FAIL: --root %s is not a directory\n",
                 root.string().c_str());
    return 1;
  }

  std::set<std::string> known_flags;
  const std::string manifest_path = flags.get_string("flags-manifest");
  const bool check_flags = !manifest_path.empty();
  if (check_flags) {
    std::ifstream manifest(manifest_path);
    if (!manifest) {
      std::fprintf(stderr, "FAIL: cannot open manifest %s\n",
                   manifest_path.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(manifest, line)) {
      for (const std::string& token : extract_flag_tokens(line)) {
        known_flags.insert(token);
      }
    }
    if (known_flags.empty()) {
      std::fprintf(stderr, "FAIL: manifest %s registers no flags\n",
                   manifest_path.c_str());
      return 1;
    }
  }

  int files = 0;
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    const fs::directory_entry& entry = *it;
    if (entry.is_directory() && skip_dir(entry.path())) {
      it.disable_recursion_pending();
      continue;
    }
    if (!entry.is_regular_file() || entry.path().extension() != ".md") {
      continue;
    }
    if (skip_file(entry.path())) continue;
    ++files;
    check_file(entry.path(), root, known_flags, check_flags);
  }

  if (files == 0) {
    std::fprintf(stderr, "FAIL: no markdown files found under %s\n",
                 root.string().c_str());
    return 1;
  }
  if (g_failures > 0) {
    std::fprintf(stderr, "%d finding(s) across %d markdown files\n",
                 g_failures, files);
    return 1;
  }
  std::printf("docs_check: %d markdown files clean (%zu known flags)\n",
              files, known_flags.size());
  return 0;
}

int main(int argc, char** argv) {
  return fedsu::util::run_main(argc, argv, run);
}
