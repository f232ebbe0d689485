#include "tools/source_scan/source_scan.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/check.h"

namespace fms::source_scan {
namespace {

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

// Adds the ids of every `<marker>a,b)` inside one line's comment text.
void collect_allowances(const std::string& comment, const std::string& marker,
                        std::set<std::string>* out) {
  std::size_t pos = 0;
  while ((pos = comment.find(marker, pos)) != std::string::npos) {
    const std::size_t open = pos + marker.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    std::string id;
    for (std::size_t i = open; i <= close; ++i) {
      const char c = comment[i];
      if (c == ',' || c == ')') {
        if (!id.empty()) out->insert(id);
        id.clear();
      } else if (!is_space(c)) {
        id.push_back(c);
      }
    }
    pos = close + 1;
  }
}

}  // namespace

bool is_ident_char(char c) {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

std::vector<Line> scan(const std::string& contents, const std::string& tool) {
  const std::string marker = tool + ": allow(";
  std::vector<Line> lines(1);

  enum class State {
    kCode, kLineComment, kBlockComment, kString, kChar, kRawString
  };
  State state = State::kCode;
  std::string raw_delim;  // a raw string's closing `)delim"`
  std::string comment;    // the current line's comment text
  std::string literal;    // the open string literal's body
  std::size_t literal_line = 0;
  std::size_t line_start = 0;
  char prev_code = '\0';  // last non-space code char (R"(, digit separators)

  // Ends the current line at the '\n' at `nl`.
  auto newline = [&](std::size_t nl) {
    lines.back().raw = contents.substr(line_start, nl - line_start);
    line_start = nl + 1;
    collect_allowances(comment, marker, &lines.back().allowed);
    comment.clear();
    lines.emplace_back();
  };
  auto close_literal = [&] {
    lines[literal_line].literals.push_back(literal);
    literal.clear();
  };

  const std::size_t n = contents.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = contents[i];
    const char next = i + 1 < n ? contents[i + 1] : '\0';
    std::string& code = lines.back().code;
    if (c == '\n') {
      newline(i);
      if (state == State::kRawString) {
        literal.push_back('\n');
      } else if (state != State::kBlockComment) {
        if (state == State::kString) close_literal();  // unterminated
        state = State::kCode;
      }
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && (next == '/' || next == '*')) {
          state = next == '/' ? State::kLineComment : State::kBlockComment;
          ++i;
        } else if (c == '"') {
          literal_line = lines.size() - 1;
          code.push_back('"');
          if (prev_code == 'R') {
            std::size_t j = i + 1;
            while (j < n && contents[j] != '(' && j - i <= 18) ++j;
            raw_delim.assign(1, ')').append(contents, i + 1, j - i - 1);
            raw_delim.push_back('"');
            state = State::kRawString;
            i = j;
          } else {
            state = State::kString;
          }
          prev_code = '"';
        } else if (c == '\'' && !is_ident_char(prev_code)) {
          state = State::kChar;
          code.push_back('\'');
          prev_code = '\'';
        } else {
          code.push_back(c);
          if (!is_space(c)) prev_code = c;
        }
        break;
      case State::kLineComment:
        comment.push_back(c);
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          comment.push_back(c);
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\' && next == '\n') {
          newline(++i);  // a spliced line continues the literal
        } else if (c == '\\') {
          if (state == State::kString && i + 1 < n) literal.push_back(next);
          ++i;
        } else if (c == (state == State::kString ? '"' : '\'')) {
          code.push_back(c);
          if (state == State::kString) close_literal();
          state = State::kCode;
        } else if (state == State::kString) {
          literal.push_back(c);
        }
        break;
      case State::kRawString:
        if (c == ')' &&
            contents.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          code.push_back('"');
          close_literal();
          state = State::kCode;
        } else {
          literal.push_back(c);
        }
        break;
    }
  }
  lines.back().raw = contents.substr(line_start);
  collect_allowances(comment, marker, &lines.back().allowed);

  // An allow() on a comment-only line also covers the next code line,
  // chaining across consecutive comment-only lines.
  std::set<std::string> pending;
  for (Line& line : lines) {
    line.allowed.insert(pending.begin(), pending.end());
    if (line.code.find_first_not_of(" \t") == std::string::npos) {
      pending = line.allowed;
    } else {
      pending.clear();
    }
  }
  return lines;
}

bool has_token(const std::string& code, const std::string& token,
               bool call_form) {
  std::size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    const std::size_t after = pos + token.size();
    const bool lhs_ok = pos == 0 || !is_ident_char(code[pos - 1]);
    const bool rhs_ok = after >= code.size() || !is_ident_char(code[after]);
    if (lhs_ok && rhs_ok) {
      if (!call_form) return true;
      const std::size_t paren = skip_space(code, after);
      if (paren < code.size() && code[paren] == '(') return true;
    }
    pos = after;
  }
  return false;
}

std::size_t ident_end(const std::string& s, std::size_t pos) {
  while (pos < s.size() && is_ident_char(s[pos])) ++pos;
  return pos;
}

std::size_t skip_space(const std::string& s, std::size_t pos) {
  while (pos < s.size() && is_space(s[pos])) ++pos;
  return pos;
}

std::string read_file(const std::string& path, const char* tool) {
  std::ifstream in(path, std::ios::binary);
  FMS_CHECK_MSG(in.good(), tool << ": cannot open " << path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> source_files(const std::vector<std::string>& roots,
                                      const char* tool) {
  namespace fs = std::filesystem;
  auto skip = [](const fs::path& p) {
    for (const auto& part : p) {
      const std::string s = part.string();
      if (s == "lint_fixtures" || s == "analyze_fixtures" || s == ".git" ||
          s == "build" || s.rfind("build-", 0) == 0) {
        return true;
      }
    }
    return false;
  };
  auto is_source = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
  };
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    const fs::path rp(root);
    FMS_CHECK_MSG(fs::exists(rp), tool << ": no such path: " << root);
    if (!fs::is_directory(rp)) {
      files.push_back(rp.string());  // named on purpose: always read
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(rp)) {
      if (entry.is_regular_file() && is_source(entry.path()) &&
          !skip(entry.path())) {
        files.push_back(entry.path().string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace fms::source_scan
