// source_scan — the C++ source reader fms_lint and fms_analyze share.
//
// Both tools are textual: no build, no parser. Each file goes through one
// scanner that removes comments and hollows out string and char literal
// bodies, so prose and literals never match a rule, and that records the
// in-place suppressions a tool honors:
//   // <tool>: allow(<id>[,<id>...])  -- reason
// on the offending line, or on a comment-only line directly above it (the
// annotation chains across consecutive comment-only lines).
//
// Literal rule: an ordinary string or char literal ends at its line's end
// (C++ allows no raw newline in one), so an unterminated quote hides
// nothing on the lines that follow; a backslash-newline splice continues
// it, and a raw string R"d(...)d" spans lines.
#pragma once

#include <set>
#include <string>
#include <vector>

namespace fms::source_scan {

struct Line {
  std::string code;  // comments removed, literal bodies hollowed out
                     // (delimiters stay, so `""` still reads as a value)
  std::string raw;   // the line's original text
  // Bodies of the string literals that open on this line, in order
  // (escape sequences keep the escaped char; raw strings keep newlines).
  std::vector<std::string> literals;
  // Ids an allow() marker permits here: the markers on this line plus
  // those on the comment-only lines directly above.
  std::set<std::string> allowed;
};

// Splits `contents` into its lines (line i is lines[i - 1]). `tool` names
// the marker to honor, e.g. "fms-lint" for `fms-lint: allow(...)`.
std::vector<Line> scan(const std::string& contents, const std::string& tool);

bool is_ident_char(char c);

// True when `token` occurs in `code` as a whole identifier; when
// `call_form` is set, the token must additionally be followed by '('
// (so `#include <ctime>` or `steady_clock` never trip call-only rules).
bool has_token(const std::string& code, const std::string& token,
               bool call_form);

// End of the identifier run that starts at `pos` (== pos when none).
std::size_t ident_end(const std::string& s, std::size_t pos);

// First position at or after `pos` that is not a space or tab.
std::size_t skip_space(const std::string& s, std::size_t pos);

// The whole file. Throws fms::CheckError "<tool>: cannot open <path>".
std::string read_file(const std::string& path, const char* tool);

// Every .h/.hpp/.cpp/.cc under `roots`, sorted. Directory recursion skips
// paths with a lint_fixtures, analyze_fixtures, .git, build or build-*
// component (known-bad fixtures and generated trees); a root naming a
// file is always listed. Throws fms::CheckError "<tool>: no such path:
// <root>" for a missing root.
std::vector<std::string> source_files(const std::vector<std::string>& roots,
                                      const char* tool);

}  // namespace fms::source_scan
