#include "util/srccheck.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace sgr {

namespace {

// ---------------------------------------------------------------------------
// Lexer: C++ source to a token stream plus the sgr-check annotations found
// in comments. Strings, character literals, raw strings, comments, and
// preprocessor directives never produce tokens, so "rand()" in a string or
// a comment cannot trip a rule.
// ---------------------------------------------------------------------------

struct Token {
  std::string text;
  std::size_t line = 0;
  std::size_t column = 0;
  bool is_ident = false;
};

/// An allow annotation as found by the lexer, before suppression matching.
struct RawAllow {
  std::size_t line = 0;
  std::string rule;
  std::string reason;
};

/// Multi-character punctuators the matchers care about. Order matters:
/// longest first so "::" never lexes as two ":".
const char* const kPuncts[] = {
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "+=", "-=",
    "*=",  "/=",  "%=",  "&=", "|=", "^=", "<<", ">>", "<=", ">=",
    "==",  "!=",  "&&",  "||",
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  void Run() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        Advance();
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '/' && Peek(1) == '/') {
        LexLineComment();
      } else if (c == '/' && Peek(1) == '*') {
        LexBlockComment();
      } else if (c == '#' && at_line_start_) {
        LexPreprocessor();
      } else if (c == '"') {
        LexString();
      } else if (c == '\'') {
        LexChar();
      } else if (c == 'R' && Peek(1) == '"') {
        LexRawString();
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        LexIdent();
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '.' &&
                  std::isdigit(static_cast<unsigned char>(Peek(1))))) {
        LexNumber();
      } else {
        LexPunct();
      }
    }
  }

  std::vector<Token> tokens;
  std::vector<RawAllow> allows;

 private:
  char Peek(std::size_t ahead) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  void Advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      column_ = 1;
      at_line_start_ = true;
    } else {
      ++column_;
      if (!std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        at_line_start_ = false;
      }
    }
    ++pos_;
  }

  void Emit(std::size_t start, std::size_t start_col, bool is_ident) {
    tokens.push_back(Token{text_.substr(start, pos_ - start), line_,
                           start_col, is_ident});
  }

  void LexLineComment() {
    const std::size_t start = pos_;
    const std::size_t comment_line = line_;
    while (pos_ < text_.size() && text_[pos_] != '\n') Advance();
    ParseAllow(text_.substr(start, pos_ - start), comment_line);
  }

  void LexBlockComment() {
    const std::size_t start = pos_;
    const std::size_t comment_line = line_;
    Advance();  // '/'
    Advance();  // '*'
    while (pos_ < text_.size() &&
           !(text_[pos_] == '*' && Peek(1) == '/')) {
      Advance();
    }
    if (pos_ < text_.size()) {
      Advance();
      Advance();
    }
    ParseAllow(text_.substr(start, pos_ - start), comment_line);
  }

  /// Extracts `sgr-check: allow(<rule>) <reason>` from a comment's text.
  /// The marker must be the first thing in the comment (after the
  /// `//`/`/*` lead-in), so prose that merely mentions the syntax — this
  /// doc comment, say — is not an annotation.
  void ParseAllow(const std::string& comment, std::size_t comment_line) {
    std::size_t at = 0;
    while (at < comment.size() &&
           (comment[at] == '/' || comment[at] == '*' ||
            comment[at] == '!')) {
      ++at;
    }
    while (at < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[at]))) {
      ++at;
    }
    const std::string marker = "sgr-check: allow(";
    if (comment.compare(at, marker.size(), marker) != 0) return;
    const std::size_t rule_begin = at + marker.size();
    const std::size_t rule_end = comment.find(')', rule_begin);
    if (rule_end == std::string::npos) return;
    std::string reason = comment.substr(rule_end + 1);
    const auto strip = [](std::string& s) {
      while (!s.empty() &&
             std::isspace(static_cast<unsigned char>(s.front()))) {
        s.erase(s.begin());
      }
      while (!s.empty() &&
             (std::isspace(static_cast<unsigned char>(s.back())) ||
              s.back() == '/' || s.back() == '*')) {
        s.pop_back();
      }
    };
    strip(reason);
    allows.push_back(RawAllow{comment_line,
                              comment.substr(rule_begin,
                                             rule_end - rule_begin),
                              reason});
  }

  /// Skips a preprocessor directive (with backslash continuations). An
  /// `#include` or `#define` body must not leak tokens into the rules.
  void LexPreprocessor() {
    while (pos_ < text_.size()) {
      if (text_[pos_] == '\\' && Peek(1) == '\n') {
        Advance();
        Advance();
        continue;
      }
      if (text_[pos_] == '\n') break;
      Advance();
    }
  }

  void LexString() {
    Advance();  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) Advance();
      Advance();
    }
    if (pos_ < text_.size()) Advance();  // closing quote
  }

  void LexChar() {
    Advance();  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '\'') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) Advance();
      Advance();
    }
    if (pos_ < text_.size()) Advance();
  }

  void LexRawString() {
    Advance();  // 'R'
    Advance();  // '"'
    std::string delim;
    while (pos_ < text_.size() && text_[pos_] != '(') {
      delim += text_[pos_];
      Advance();
    }
    const std::string close = ")" + delim + "\"";
    while (pos_ < text_.size() &&
           text_.compare(pos_, close.size(), close) != 0) {
      Advance();
    }
    for (std::size_t i = 0; i < close.size() && pos_ < text_.size(); ++i) {
      Advance();
    }
  }

  void LexIdent() {
    const std::size_t start = pos_;
    const std::size_t start_col = column_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      Advance();
    }
    Emit(start, start_col, true);
  }

  void LexNumber() {
    const std::size_t start = pos_;
    const std::size_t start_col = column_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          c == '\'') {
        Advance();
      } else if ((c == '+' || c == '-') && pos_ > start) {
        const char prev = text_[pos_ - 1];
        if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
          Advance();
        } else {
          break;
        }
      } else {
        break;
      }
    }
    Emit(start, start_col, false);
  }

  void LexPunct() {
    const std::size_t start = pos_;
    const std::size_t start_col = column_;
    for (const char* punct : kPuncts) {
      const std::size_t n = std::char_traits<char>::length(punct);
      if (text_.compare(pos_, n, punct) == 0) {
        for (std::size_t i = 0; i < n; ++i) Advance();
        Emit(start, start_col, false);
        return;
      }
    }
    Advance();
    Emit(start, start_col, false);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t column_ = 1;
  bool at_line_start_ = true;
};

// ---------------------------------------------------------------------------
// Path predicates: rule exemptions match on path components / suffixes so
// "src/obs/trace.cc" and "/abs/repo/src/obs/trace.cc" behave identically.
// ---------------------------------------------------------------------------

std::string NormalizePath(const std::string& path) {
  std::string out = path;
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

bool PathHasComponent(const std::string& path, const std::string& dir) {
  const std::string p = NormalizePath(path);
  std::size_t begin = 0;
  while (begin <= p.size()) {
    const std::size_t end = p.find('/', begin);
    const std::string component =
        p.substr(begin, end == std::string::npos ? std::string::npos
                                                 : end - begin);
    if (component == dir) return true;
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return false;
}

bool PathEndsWith(const std::string& path, const std::string& suffix) {
  const std::string p = NormalizePath(path);
  if (p.size() < suffix.size()) return false;
  if (p.compare(p.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  // Suffix must start at a component boundary: "exp/runner.cc" must not
  // match "myexp/runner.cc".
  const std::size_t at = p.size() - suffix.size();
  return at == 0 || p[at - 1] == '/';
}

/// The path without its extension: foo.h and foo.cc share a stem.
std::string Stem(const std::string& path) {
  return path.substr(0, path.rfind('.'));
}

bool InObs(const std::string& path) { return PathHasComponent(path, "obs"); }

bool IsEnvTextHome(const std::string& path) {
  return PathEndsWith(path, "exp/runner.cc");
}

bool IsSanctionedRngHome(const std::string& path) {
  return PathEndsWith(path, "util/rng.h") ||
         PathEndsWith(path, "util/rng.cc") ||
         PathEndsWith(path, "exp/parallel.h") ||
         PathEndsWith(path, "exp/parallel.cc");
}

bool IsDoubleOnlyLayer(const std::string& path) {
  return PathHasComponent(path, "analysis") ||
         PathHasComponent(path, "estimation") ||
         PathHasComponent(path, "restore") ||
         PathHasComponent(path, "dk");
}

bool Contains(const std::vector<std::string>& names,
              const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

void AddUnique(std::vector<std::string>& names, const std::string& name) {
  if (!Contains(names, name)) names.push_back(name);
}

const std::unordered_set<std::string>& RawRngNames() {
  static const auto* names = new std::unordered_set<std::string>{
      "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
      "default_random_engine", "ranlux24", "ranlux48", "ranlux24_base",
      "ranlux48_base", "knuth_b", "subtract_with_carry_engine",
      "linear_congruential_engine", "mersenne_twister_engine",
  };
  return *names;
}

const std::unordered_set<std::string>& UnorderedTypeNames() {
  static const auto* names = new std::unordered_set<std::string>{
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset",
  };
  return *names;
}

bool IsDeclKeyword(const std::string& text) {
  static const auto* keywords = new std::unordered_set<std::string>{
      "using",  "typedef", "template", "static_assert", "friend",
      "namespace", "class", "struct", "enum", "union", "extern",
      "public", "private", "protected",
  };
  return keywords->count(text) > 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// FileLinter: runs every rule over one file's token stream.
// ---------------------------------------------------------------------------

class FileLinter {
 public:
  FileLinter(SourceChecker& checker, std::string path,
             const std::string& content)
      : checker_(checker), path_(std::move(path)), lexer_(content) {
    lexer_.Run();
  }

  /// Pass 1: registers names declared with unordered container types.
  void CollectDeclarations() {
    const std::vector<Token>& t = lexer_.tokens;
    // Aliases first: `using NAME = ...unordered_...<...>...;`
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
      if (t[i].text != "using" || !t[i + 1].is_ident ||
          t[i + 2].text != "=") {
        continue;
      }
      for (std::size_t j = i + 3;
           j < t.size() && t[j].text != ";"; ++j) {
        if (UnorderedTypeNames().count(t[j].text) > 0) {
          AddUnique(checker_.alias_unordered_, t[i + 1].text);
          break;
        }
      }
    }
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (UnorderedTypeNames().count(t[i].text) == 0 &&
          !Contains(checker_.alias_unordered_, t[i].text)) {
        continue;
      }
      // Skip the alias definition itself.
      if (i >= 2 && t[i - 2].text == "using" && t[i - 1].text == "=") {
        continue;
      }
      RegisterDeclarator(i);
    }
    // `for (... NAME : CONTAINER)` over a container of unordered maps
    // declares NAME as an unordered map for the loop's body.
    for (std::size_t i = 1; i + 2 < t.size(); ++i) {
      if (t[i].text == ":" && t[i + 2].text == ")" &&
          Contains(checker_.element_unordered_, t[i + 1].text)) {
        RegisterVariable(i - 1);
      }
    }
  }

  /// Pass 2: all rules.
  void Lint() {
    LintBannedIdentifiers();
    LintGlobalState();
    LintUnorderedLoops();
  }

 private:
  const std::vector<Token>& Tokens() const { return lexer_.tokens; }

  void Report(const Token& at, const std::string& rule,
              const std::string& message) {
    CheckDiagnostic diag;
    diag.file = path_;
    diag.line = at.line;
    diag.column = at.column;
    diag.rule = rule;
    diag.message = message;
    // Escape hatch: an allow for this rule on the same line or the line
    // directly above suppresses the finding (and is counted as used).
    for (RawAllow& allow : lexer_.allows) {
      if (allow.rule != rule) continue;
      if (allow.line != diag.line && allow.line + 1 != diag.line) continue;
      for (CheckAllow& recorded : checker_.pending_allows_) {
        if (recorded.file == path_ && recorded.line == allow.line &&
            recorded.rule == allow.rule) {
          ++recorded.suppressed;
          return;
        }
      }
      return;  // unreachable: every allow is pre-recorded below
    }
    checker_.result_.violations.push_back(std::move(diag));
  }

 public:
  /// Records every annotation up front so unused ones can be reported.
  void PreRecordAllows() {
    for (const RawAllow& allow : lexer_.allows) {
      CheckAllow recorded;
      recorded.file = path_;
      recorded.line = allow.line;
      recorded.rule = allow.rule;
      recorded.reason = allow.reason;
      checker_.pending_allows_.push_back(std::move(recorded));
    }
  }

 private:
  // -- Rule group 1/4/5: banned identifier matchers. ------------------------

  bool PrecededByMemberAccess(std::size_t i) const {
    const std::vector<Token>& t = Tokens();
    if (i == 0) return false;
    if (t[i - 1].text == "." || t[i - 1].text == "->") return true;
    // `foo::rand(` is someone else's rand; `std::rand(` is the banned one.
    if (t[i - 1].text == "::") {
      return !(i >= 2 && t[i - 2].text == "std");
    }
    return false;
  }

  void LintBannedIdentifiers() {
    const std::vector<Token>& t = Tokens();
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!t[i].is_ident) continue;
      const std::string& name = t[i].text;
      const bool called =
          i + 1 < t.size() && t[i + 1].text == "(";

      if ((name == "rand" || name == "srand") && called &&
          !PrecededByMemberAccess(i)) {
        Report(t[i], "nondet-random",
               name + "() seeds from process entropy; derive an Rng via "
                      "DeriveSeed (util/rng, exp/parallel)");
      } else if (name == "random_device" && !PrecededByMemberAccess(i)) {
        Report(t[i], "nondet-random",
               "std::random_device is nondeterministic by design; all "
               "randomness must be a pure function of (seed, index)");
      } else if ((name == "time" || name == "clock") && called &&
                 !PrecededByMemberAccess(i) && !InObs(path_)) {
        Report(t[i], "nondet-clock",
               name + "() reads the wall clock; the single sanctioned "
                      "clock is obs/timer.h");
      } else if ((name == "system_clock" || name == "steady_clock" ||
                  name == "high_resolution_clock") &&
                 !InObs(path_)) {
        Report(t[i], "nondet-clock",
               "std::chrono::" + name +
                   " outside obs/; route timing through obs/timer.h "
                   "(Timer, SteadyNowMicros)");
      } else if (name == "getenv" && !PrecededByMemberAccess(i) &&
                 !IsEnvTextHome(path_)) {
        Report(t[i], "nondet-env",
               "getenv outside exp/runner.cc (read the environment through "
               "EnvText) makes library behavior depend on ambient state the "
               "report does not echo");
      } else if (RawRngNames().count(name) > 0 &&
                 !IsSanctionedRngHome(path_)) {
        Report(t[i], "raw-rng",
               "direct std::" + name +
                   " outside util/rng and exp/parallel bypasses the "
                   "DeriveSeed scheme");
      } else if (name == "float" && IsDoubleOnlyLayer(path_)) {
        Report(t[i], "float-drift",
               "float in analysis/estimation/restore/dk code; the "
               "FP-summation-shape contract is double-only");
      }
    }
  }

  // -- Rule 3: hidden shared state. -----------------------------------------

  enum class ScopeKind { kNamespace, kClass, kFunction, kInit };

  /// Tracks scopes by classifying every `{`; flags non-const variables at
  /// namespace scope and non-const `static` locals at function scope.
  void LintGlobalState() {
    const std::vector<Token>& t = Tokens();
    std::vector<ScopeKind> scopes{ScopeKind::kNamespace};
    bool pending_class_head = false;
    std::size_t i = 0;
    while (i < t.size()) {
      const std::string& text = t[i].text;
      if (text == "class" || text == "struct" || text == "union" ||
          text == "enum") {
        // Not a class head inside template parameter lists (`template
        // <class T>`) — approximated by the preceding token.
        if (i == 0 || (t[i - 1].text != "<" && t[i - 1].text != "," &&
                       t[i - 1].text != "typename")) {
          pending_class_head = true;
        }
        ++i;
        continue;
      }
      if (text == ";" || text == ")") {
        pending_class_head = false;  // fwd declaration / parameter type
        ++i;
        continue;
      }
      if (text == "{") {
        scopes.push_back(ClassifyBrace(i, pending_class_head, scopes));
        pending_class_head = false;
        ++i;
        continue;
      }
      if (text == "}") {
        if (scopes.size() > 1) scopes.pop_back();
        ++i;
        continue;
      }
      if (scopes.back() == ScopeKind::kNamespace) {
        i = ClassifyNamespaceStatement(i);
        continue;
      }
      if (scopes.back() == ScopeKind::kFunction &&
          (text == "static" || text == "thread_local")) {
        i = ClassifyStaticLocal(i);
        continue;
      }
      ++i;
    }
  }

  ScopeKind ClassifyBrace(std::size_t brace, bool pending_class_head,
                          const std::vector<ScopeKind>& scopes) const {
    const std::vector<Token>& t = Tokens();
    // `namespace [A[::B]] {`
    std::size_t j = brace;
    while (j > 0 && (t[j - 1].is_ident || t[j - 1].text == "::")) --j;
    if (j > 0 && t[j - 1].text == "namespace") return ScopeKind::kNamespace;
    if (pending_class_head) return ScopeKind::kClass;
    if (brace > 0) {
      const std::string& prev = t[brace - 1].text;
      // Function bodies follow `)` (possibly through const/noexcept/
      // override/trailing-return) or a lambda introducer, or else/do/try.
      if (prev == ")" || prev == "]" || prev == "else" || prev == "do" ||
          prev == "try" || prev == "const" || prev == "noexcept" ||
          prev == "override" || prev == "final" || prev == "mutable") {
        return ScopeKind::kFunction;
      }
      if (prev == "=" || prev == "," || prev == "(" || prev == "{" ||
          prev == "return") {
        return ScopeKind::kInit;
      }
      // Trailing return type: `) -> Type {`.
      if (t[brace - 1].is_ident || prev == ">" || prev == "*" ||
          prev == "&") {
        std::size_t k = brace;
        while (k > 0 && (t[k - 1].is_ident || t[k - 1].text == "::" ||
                         t[k - 1].text == "<" || t[k - 1].text == ">" ||
                         t[k - 1].text == "*" || t[k - 1].text == "&" ||
                         t[k - 1].text == "->")) {
          if (t[k - 1].text == "->") {
            return ScopeKind::kFunction;
          }
          --k;
        }
      }
    }
    // Inside a function, an unexplained `{` is a plain block.
    if (scopes.back() == ScopeKind::kFunction) return ScopeKind::kFunction;
    return ScopeKind::kInit;
  }

  /// Classifies one namespace-scope statement starting at `i`; returns the
  /// index to resume scanning from (the terminator stays unconsumed so the
  /// scope machine sees `{`/`}`).
  std::size_t ClassifyNamespaceStatement(std::size_t i) {
    const std::vector<Token>& t = Tokens();
    if (IsDeclKeyword(t[i].text) || !(t[i].is_ident || t[i].text == "[")) {
      // `using`/`typedef`/... or stray punctuation: skip the statement.
      return SkipToStatementEnd(i);
    }
    bool saw_const = false;
    bool saw_eq = false;
    bool saw_paren_before_eq = false;
    std::size_t depth = 0;
    std::size_t j = i;
    for (; j < t.size(); ++j) {
      const std::string& text = t[j].text;
      if (text == "(") {
        ++depth;
        if (!saw_eq) saw_paren_before_eq = true;
        continue;
      }
      if (text == ")") {
        if (depth > 0) --depth;
        continue;
      }
      if (depth > 0) continue;
      if (text == "const" || text == "constexpr" || text == "constinit" ||
          text == "using" || text == "typedef" || text == "extern") {
        saw_const = saw_const || text != "using";
        if (text == "using" || text == "typedef" || text == "extern") {
          return SkipToStatementEnd(i);
        }
        continue;
      }
      if (text == "=") {
        saw_eq = true;
        continue;
      }
      if (text == ";" || text == "{") break;
    }
    if (j >= t.size()) return j;
    const bool is_variable =
        saw_eq || (t[j].text == ";" && !saw_paren_before_eq);
    if (is_variable && !saw_const) {
      Report(t[i], "global-state",
             "non-const namespace-scope variable '" + t[i].text +
                 "'; the only sanctioned globals are the obs registries");
    }
    // Leave `{` for the brace classifier (function body / init list);
    // consume through `;` otherwise.
    return t[j].text == ";" ? j + 1 : j;
  }

  std::size_t SkipToStatementEnd(std::size_t i) const {
    const std::vector<Token>& t = Tokens();
    std::size_t depth = 0;
    for (std::size_t j = i; j < t.size(); ++j) {
      if (t[j].text == "(") ++depth;
      if (t[j].text == ")" && depth > 0) --depth;
      if (depth == 0 && (t[j].text == ";")) return j + 1;
      if (depth == 0 && (t[j].text == "{" || t[j].text == "}")) return j;
    }
    return t.size();
  }

  /// `static` (or `thread_local`) at function scope: flag unless const.
  std::size_t ClassifyStaticLocal(std::size_t i) {
    const std::vector<Token>& t = Tokens();
    bool saw_const = false;
    bool saw_eq = false;
    bool saw_paren_before_eq = false;
    std::size_t depth = 0;
    std::size_t j = i + 1;
    for (; j < t.size(); ++j) {
      const std::string& text = t[j].text;
      if (text == "(") {
        ++depth;
        if (!saw_eq) saw_paren_before_eq = true;
        continue;
      }
      if (text == ")") {
        if (depth > 0) --depth;
        continue;
      }
      if (depth > 0) continue;
      if (text == "const" || text == "constexpr" || text == "constinit") {
        saw_const = true;
        continue;
      }
      if (text == "=") {
        saw_eq = true;
        continue;
      }
      if (text == ";" || text == "{") break;
    }
    const bool is_variable =
        saw_eq || (j < t.size() && t[j].text == ";" &&
                   !saw_paren_before_eq);
    if (is_variable && !saw_const && !InObs(path_)) {
      Report(t[i], "global-state",
             "non-const static local outside obs/ is hidden shared state "
             "across calls (and a data race under the thread pool)");
    }
    return j;
  }

  // -- Rule 2: unordered-iteration hazard. ----------------------------------

  /// Registers declarator names following an unordered type at token `at`.
  void RegisterDeclarator(std::size_t at) {
    const std::vector<Token>& t = Tokens();
    std::size_t i = at + 1;
    bool nested = false;
    if (i < t.size() && t[i].text == "<") {
      std::size_t depth = 0;
      for (; i < t.size(); ++i) {
        if (t[i].text == "<") ++depth;
        if (t[i].text == ">" || t[i].text == ">>") {
          // A `>>` at depth 1 also closes an outer template.
          const std::size_t closes = t[i].text.size();
          nested = depth < closes;
          depth = depth > closes ? depth - closes : 0;
          if (depth == 0) {
            ++i;
            break;
          }
        }
        if (t[i].text == ";") return;  // unbalanced; bail
      }
    }
    // Stray closers mean the unordered type was an inner template
    // argument: the declared name holds a container OF unordered maps.
    while (i < t.size() &&
           (t[i].text == ">" || t[i].text == ">>")) {
      nested = true;
      ++i;
    }
    while (i < t.size() &&
           (t[i].text == "&" || t[i].text == "*" ||
            t[i].text == "const")) {
      ++i;
    }
    if (i >= t.size() || !t[i].is_ident) return;
    if (nested) {
      AddUnique(checker_.element_unordered_, t[i].text);
      return;
    }
    // Outside a function body, `unordered_map<...> Foo(` declares an
    // accessor returning the map (values()) — matched only when called,
    // so an unrelated plain variable of the same name does not collide.
    // Any other declarator is a variable — matched only when not called,
    // so the member `neighbors` does not taint the method
    // `g.neighbors(v)`. Inside a function body `NAME(args)` can only
    // direct-initialise a variable (`m(16)`).
    if (i + 1 < t.size() && t[i + 1].text == "(" && !InFunctionBody(i)) {
      AddUnique(checker_.accessor_unordered_, t[i].text);
      return;
    }
    RegisterVariable(i);
  }

  /// Index of the innermost `(` or `{` still open at token `at`, or the
  /// token count at file scope.
  std::size_t InnermostOpener(std::size_t at) const {
    const std::vector<Token>& t = Tokens();
    for (std::size_t j = at, depth = 0; j-- > 0;) {
      const std::string& text = t[j].text;
      if (text == ")" || text == "}") ++depth;
      if (text != "(" && text != "{") continue;
      if (depth == 0) return j;
      --depth;
    }
    return t.size();
  }

  /// True when the `{` at `brace` opens a class or namespace body, which
  /// holds members and globals, not locals.
  bool IsClassOrNamespaceBody(std::size_t brace) const {
    const std::vector<Token>& t = Tokens();
    for (std::size_t k = brace; k-- > 0;) {
      const std::string& head = t[k].text;
      if (head == ";" || head == "{" || head == "}") break;
      if (head == "class" || head == "struct" || head == "union" ||
          head == "namespace") {
        return true;
      }
    }
    return false;
  }

  /// True when token `at` sits directly in a function (or lambda) body.
  bool InFunctionBody(std::size_t at) const {
    const std::size_t opener = InnermostOpener(at);
    return opener < Tokens().size() && Tokens()[opener].text == "{" &&
           !IsClassOrNamespaceBody(opener);
  }

  /// Registers the variable named at token `at`. Preload and Check may
  /// both register a file; the duplicate entries agree.
  void RegisterVariable(std::size_t at) {
    SourceChecker::UnorderedVariable var{Tokens()[at].text, path_};
    if (SetScope(at, var)) checker_.direct_unordered_.push_back(var);
  }

  /// Index of the bracket closing the `(`, `[` or `{` at `open`.
  std::size_t Match(std::size_t open) const {
    const std::vector<Token>& t = Tokens();
    std::size_t depth = 0;
    for (std::size_t j = open; j < t.size(); ++j) {
      const std::string& text = t[j].text;
      if (text == "(" || text == "[" || text == "{") ++depth;
      if ((text == ")" || text == "]" || text == "}") && --depth == 0) return j;
    }
    return t.size();
  }

  /// Sets `var`'s scope from its declarator at token `at`, found through
  /// the innermost unclosed `(` or `{`: a parameter is local to its
  /// function body, any other variable inside a function to the rest of
  /// its block. Returns false for a parameter of a declaration without a
  /// body, which declares no variable.
  bool SetScope(std::size_t at, SourceChecker::UnorderedVariable& var) const {
    const std::vector<Token>& t = Tokens();
    const std::size_t j = InnermostOpener(at);
    if (j == t.size()) return true;  // file scope
    var.begin = at;
    var.end = Match(j);
    if (t[j].text == "(") {
      var.begin = var.end;
      while (var.begin < t.size() && t[var.begin].text != "{") {
        if (t[var.begin++].text == ";") return false;
      }
      if (var.begin == t.size()) return false;
      var.end = Match(var.begin);
    }
    var.local = t[j].text == "(" || !IsClassOrNamespaceBody(j);
    return true;
  }

  /// True when the name at token `i` denotes an unordered container (a
  /// variable in scope, element access of a container of unordered maps,
  /// or a call of an accessor returning one).
  bool IsUnorderedUse(std::size_t i) const {
    const std::vector<Token>& t = Tokens();
    if (!t[i].is_ident) return false;
    const bool called = i + 1 < t.size() && t[i + 1].text == "(";
    const bool member_access =
        i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->");
    for (const SourceChecker::UnorderedVariable& var :
         checker_.direct_unordered_) {
      if (var.name != t[i].text) continue;
      const bool visible =
          var.local ? var.file == path_ && var.begin <= i && i < var.end
                    : member_access || Stem(var.file) == Stem(path_);
      if (visible) return !called;
    }
    if (Contains(checker_.accessor_unordered_, t[i].text)) return called;
    if (Contains(checker_.element_unordered_, t[i].text)) {
      return i + 1 < t.size() && t[i + 1].text == "[";
    }
    return false;
  }

  /// Flags every walk of an unordered container: a range-for over one,
  /// and NAME.begin() / NAME.cbegin() anywhere, which covers iterator
  /// loops and algorithms (std::accumulate, std::all_of, std::copy, ...).
  /// No loop body is exempt: even a floating-point sum depends on the
  /// order of its terms. The sanctioned walk is a range-for over
  /// SortedKeys(...); find()/end() lookups stay legal.
  void LintUnorderedLoops() {
    const std::vector<Token>& t = Tokens();
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      bool walk = false;
      if (IsUnorderedUse(i)) {
        // Past an accessor's call or an element's subscript.
        std::size_t j = i + 1;
        if (t[j].text == "(" || t[j].text == "[") j = Match(j) + 1;
        walk = j + 1 < t.size() && (t[j].text == "." || t[j].text == "->") &&
               (t[j + 1].text == "begin" || t[j + 1].text == "cbegin");
      } else if (t[i].text == "for" && t[i + 1].text == "(") {
        // A range-for has a ':' at paren depth 1 before any ';'.
        const std::size_t close = Match(i + 1);
        std::size_t colon = i + 2;
        while (colon < close && t[colon].text != ":" &&
               t[colon].text != ";") {
          colon = t[colon].text == "(" ? Match(colon) + 1 : colon + 1;
        }
        if (colon >= close || t[colon].text == ";" ||
            t[colon + 1].text == "SortedKeys") {
          continue;
        }
        for (std::size_t j = colon + 1; j < close && !walk; ++j) {
          walk = IsUnorderedUse(j);
        }
      }
      if (walk) {
        Report(t[i], "unordered-iter",
               "walks an unordered container in hash order; walk "
               "SortedKeys(...), or annotate why hash order cannot leak");
      }
    }
  }

  SourceChecker& checker_;
  std::string path_;
  Lexer lexer_;
};

// ---------------------------------------------------------------------------
// SourceChecker
// ---------------------------------------------------------------------------

void SourceChecker::Preload(const std::string& path,
                            const std::string& content) {
  FileLinter linter(*this, path, content);
  linter.CollectDeclarations();
}

void SourceChecker::Check(const std::string& path,
                          const std::string& content) {
  FileLinter linter(*this, path, content);
  linter.CollectDeclarations();
  linter.PreRecordAllows();
  linter.Lint();
}

CheckResult SourceChecker::TakeResult() {
  for (CheckAllow& allow : pending_allows_) {
    if (allow.suppressed == 0) {
      CheckDiagnostic diag;
      diag.file = allow.file;
      diag.line = allow.line;
      diag.column = 1;
      diag.rule = "unused-allow";
      diag.message = "allow(" + allow.rule +
                     ") annotation suppressed nothing; remove it or fix "
                     "the rule id";
      result_.violations.push_back(std::move(diag));
    }
    result_.allows.push_back(allow);
  }
  pending_allows_.clear();
  const auto by_position = [](const CheckDiagnostic& a,
                              const CheckDiagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.column < b.column;
  };
  std::sort(result_.violations.begin(), result_.violations.end(),
            by_position);
  return std::move(result_);
}

// ---------------------------------------------------------------------------
// Tree walking, report printing
// ---------------------------------------------------------------------------

namespace {

std::string ReadFileOrThrow(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("sgr-check: cannot read '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool IsSourceFile(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

}  // namespace

CheckResult CheckSourceTree(const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    if (std::filesystem::is_directory(path)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(path)) {
        if (entry.is_regular_file() && IsSourceFile(entry.path())) {
          files.push_back(entry.path().generic_string());
        }
      }
    } else if (std::filesystem::exists(path)) {
      files.push_back(path);
    } else {
      throw std::runtime_error("sgr-check: no such file or directory: '" +
                               path + "'");
    }
  }
  // Directory iteration order is platform-dependent; diagnostics must not
  // be.
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  SourceChecker checker;
  std::vector<std::pair<std::string, std::string>> contents;
  contents.reserve(files.size());
  for (const std::string& file : files) {
    contents.emplace_back(file, ReadFileOrThrow(file));
  }
  for (const auto& [file, content] : contents) {
    checker.Preload(file, content);
  }
  for (const auto& [file, content] : contents) {
    checker.Check(file, content);
  }
  return checker.TakeResult();
}

void PrintCheckReport(const CheckResult& result, std::ostream& out) {
  for (const CheckDiagnostic& diag : result.violations) {
    out << diag.file << ":" << diag.line << ":" << diag.column << ": "
        << diag.rule << ": " << diag.message << "\n";
  }
  if (!result.allows.empty()) {
    out << "\nsanctioned exceptions (sgr-check: allow):\n";
    for (const CheckAllow& allow : result.allows) {
      out << "  " << allow.file << ":" << allow.line << ": allow("
          << allow.rule << "): "
          << (allow.reason.empty() ? "<no reason given>" : allow.reason)
          << "\n";
    }
  }
  out << "\nsgr-check: " << result.violations.size() << " violation(s), "
      << result.allows.size() << " sanctioned exception(s)\n";
}

}  // namespace sgr
