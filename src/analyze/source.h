#ifndef FOCUS_ANALYZE_SOURCE_H_
#define FOCUS_ANALYZE_SOURCE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace focus::analyze {

// Stage 1 of the focus_analyze pipeline (docs/STATIC_ANALYSIS.md): a
// "code view" of each file with comments, string literals, and char
// literals blanked out so prose and patterns inside strings never reach
// the later stages. Line structure is preserved exactly — every
// diagnostic line number indexes the original file.
struct StrippedSource {
  // Code with comments / string literals / char literals spaced out.
  std::vector<std::string> code;
  // The comment text of each line (for allow() directives).
  std::vector<std::string> comments;
};

StrippedSource Strip(const std::string& text);

// Checkers suppressed per line (1-based) via an escape-hatch comment on
// the diagnostic line or the line directly above:
//
//   // focus-analyze: allow(checker-name) — why it is fine here
std::map<int, std::set<std::string>> AllowedCheckers(
    const StrippedSource& stripped);

}  // namespace focus::analyze

#endif  // FOCUS_ANALYZE_SOURCE_H_
