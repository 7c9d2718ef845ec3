#include "analyze/source.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace focus::analyze {

StrippedSource Strip(const std::string& text) {
  StrippedSource out;
  std::string code_line, comment_line;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  const size_t n = text.size();
  for (size_t i = 0; i < n; ++i) {
    const char c = text[i];
    const char next = i + 1 < n ? text[i + 1] : '\0';
    if (c == '\n') {
      out.code.push_back(code_line);
      out.comments.push_back(comment_line);
      code_line.clear();
      comment_line.clear();
      if (state == State::kLineComment) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          code_line += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code_line += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (code_line.empty() ||
                    (!std::isalnum(static_cast<unsigned char>(
                         code_line.back())) &&
                     code_line.back() != '_'))) {
          // Raw string literal: R"delim( ... )delim"
          size_t j = i + 2;
          raw_delim.clear();
          while (j < n && text[j] != '(') raw_delim += text[j++];
          state = State::kRawString;
          code_line += ' ';
          code_line.append(j - i, ' ');
          i = j;  // at '('
        } else if (c == '"') {
          state = State::kString;
          code_line += ' ';
        } else if (c == '\'') {
          // A ' directly after an identifier/digit character is a numeric
          // digit separator (30'000), not a char literal. (The old
          // focus_lint stripper got this wrong and silently blanked the
          // rest of any file that used one.)
          if (!code_line.empty() &&
              (std::isalnum(static_cast<unsigned char>(code_line.back())) ||
               code_line.back() == '_')) {
            code_line += c;
          } else {
            state = State::kChar;
            code_line += ' ';
          }
        } else {
          code_line += c;
        }
        break;
      case State::kLineComment:
        comment_line += c;
        code_line += ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code_line += "  ";
          ++i;
        } else {
          comment_line += c;
          code_line += ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          code_line += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          code_line += ' ';
        } else {
          code_line += ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          code_line += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          code_line += ' ';
        } else {
          code_line += ' ';
        }
        break;
      case State::kRawString: {
        const std::string close = ")" + raw_delim + "\"";
        if (text.compare(i, close.size(), close) == 0) {
          state = State::kCode;
          code_line.append(close.size(), ' ');
          i += close.size() - 1;
        } else {
          code_line += ' ';
        }
        break;
      }
    }
  }
  out.code.push_back(code_line);
  out.comments.push_back(comment_line);
  return out;
}

std::map<int, std::set<std::string>> AllowedCheckers(
    const StrippedSource& stripped) {
  std::map<int, std::set<std::string>> allowed;
  for (size_t row = 0; row < stripped.comments.size(); ++row) {
    const std::string& comment = stripped.comments[row];
    const size_t at = comment.find("focus-analyze:");
    if (at == std::string::npos) continue;
    const size_t open = comment.find("allow(", at);
    if (open == std::string::npos) continue;
    const size_t close = comment.find(')', open);
    if (close == std::string::npos) continue;
    std::string checkers = comment.substr(open + 6, close - open - 6);
    std::replace(checkers.begin(), checkers.end(), ',', ' ');
    std::istringstream in(checkers);
    std::string checker;
    const int line = static_cast<int>(row) + 1;
    while (in >> checker) {
      allowed[line].insert(checker);
      allowed[line + 1].insert(checker);  // directive on its own line above
    }
  }
  return allowed;
}

}  // namespace focus::analyze
