#include "rdf/turtle_parser.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace ksp {

namespace {

constexpr std::string_view kRdfType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
constexpr std::string_view kXsdInteger =
    "http://www.w3.org/2001/XMLSchema#integer";
constexpr std::string_view kXsdDecimal =
    "http://www.w3.org/2001/XMLSchema#decimal";
constexpr std::string_view kXsdDouble =
    "http://www.w3.org/2001/XMLSchema#double";
constexpr std::string_view kXsdBoolean =
    "http://www.w3.org/2001/XMLSchema#boolean";

inline bool IsPnChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || c == '.' ||
         static_cast<unsigned char>(c) >= 0x80;  // UTF-8 continuation.
}

/// Stateful cursor over the whole document with prefix/base expansion.
/// Errors are located as `where` followed by the current line number:
/// "line 3: ..." for a document, "data.nt:17: ..." for one line of an
/// N-Triples file.
class TurtleCursor {
 public:
  explicit TurtleCursor(std::string_view text, std::string_view where = "line ",
                        size_t line = 1)
      : text_(text), where_(where), line_(line) {}

  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  bool AtEnd() {
    SkipWhitespaceAndComments();
    return pos_ >= text_.size();
  }

  char Peek() {
    SkipWhitespaceAndComments();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool TryChar(char c) {
    SkipWhitespaceAndComments();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Consumes a case-insensitive bare word with a boundary check.
  bool TryWord(std::string_view word) {
    SkipWhitespaceAndComments();
    if (pos_ + word.size() > text_.size()) return false;
    for (size_t i = 0; i < word.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(text_[pos_ + i])) !=
          std::tolower(static_cast<unsigned char>(word[i]))) {
        return false;
      }
    }
    size_t after = pos_ + word.size();
    // Boundary: "a" must not swallow the start of "a:name" or "author".
    if (after < text_.size() &&
        ((IsPnChar(text_[after]) && text_[after] != '.') ||
         text_[after] == ':')) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  Status Error(std::string_view message) const {
    return Status::InvalidArgument(std::string(where_) +
                                   std::to_string(line_) + ": " +
                                   std::string(message));
  }

  /// <...> with relative-IRI resolution against @base.
  Result<std::string> ReadIriRef() {
    if (!TryChar('<')) return Error("expected '<'");
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '>' &&
           text_[pos_] != '\n') {
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] != '>') {
      return Error("unterminated IRI");
    }
    std::string iri(text_.substr(start, pos_ - start));
    ++pos_;
    if (iri.find(':') == std::string::npos && !base_.empty()) {
      iri = base_ + iri;
    }
    return iri;
  }

  /// pre:Local or :Local; also bare blank node labels (_:x).
  Result<std::string> ReadPrefixedOrBlank() {
    SkipWhitespaceAndComments();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (IsPnChar(text_[pos_]) || text_[pos_] == ':')) {
      ++pos_;
    }
    std::string_view token = text_.substr(start, pos_ - start);
    // A trailing '.' is the statement terminator, not part of the name.
    while (!token.empty() && token.back() == '.') {
      token.remove_suffix(1);
      --pos_;
    }
    if (token.empty()) return Error("expected a prefixed name");
    if (token.substr(0, 2) == "_:") return std::string(token);
    size_t colon = token.find(':');
    if (colon == std::string_view::npos) {
      return Error("'" + std::string(token) +
                   "' is not a prefixed name (missing ':')");
    }
    std::string prefix(token.substr(0, colon));
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return Error("undeclared prefix '" + prefix + ":'");
    }
    return it->second + std::string(token.substr(colon + 1));
  }

  /// Any IRI-position term: IRIREF, prefixed name, or blank node.
  Result<std::string> ReadIri() {
    char c = Peek();
    if (c == '<') return ReadIriRef();
    if (c == '[') {
      return Error("anonymous blank nodes '[...]' are not supported");
    }
    if (c == '(') {
      return Error("RDF collections '(...)' are not supported");
    }
    return ReadPrefixedOrBlank();
  }

  /// "..." literal body with escape decoding ("""...""" rejected).
  Result<std::string> ReadStringBody() {
    ++pos_;  // Opening quote consumed by caller check.
    if (pos_ + 1 < text_.size() && text_[pos_] == '"' &&
        text_[pos_ + 1] == '"') {
      return Error("multi-line \"\"\"literals\"\"\" are not supported");
    }
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\n') return Error("newline inside literal");
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("dangling escape");
        char e = text_[pos_++];
        switch (e) {
          case 't':
            out.push_back('\t');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case '"':
            out.push_back('"');
            break;
          case '\'':
            out.push_back('\'');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case 'u':
          case 'U': {
            size_t digits = (e == 'u') ? 4 : 8;
            if (pos_ + digits > text_.size()) {
              return Error("truncated unicode escape");
            }
            uint32_t cp = 0;
            for (size_t i = 0; i < digits; ++i) {
              char h = text_[pos_ + i];
              cp <<= 4;
              if (h >= '0' && h <= '9') {
                cp |= static_cast<uint32_t>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                cp |= static_cast<uint32_t>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                cp |= static_cast<uint32_t>(h - 'A' + 10);
              } else {
                return Error("bad hex digit in escape");
              }
            }
            pos_ += digits;
            AppendUtf8(cp, &out);
            break;
          }
          default:
            return Error(std::string("unknown escape \\") + e);
        }
        continue;
      }
      out.push_back(c);
      ++pos_;
    }
    return Error("unterminated literal");
  }

  /// @lang-tag after a closing quote.
  std::string ReadLanguageTag() {
    ++pos_;  // '@'
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  /// Bare numeric literal token.
  Result<std::pair<std::string, std::string_view>> ReadNumber() {
    SkipWhitespaceAndComments();
    size_t start = pos_;
    bool has_dot = false;
    bool has_exp = false;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' && !has_dot && pos_ + 1 < text_.size() &&
                 std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
        // A '.' is only part of the number if a digit follows (otherwise
        // it terminates the statement).
        has_dot = true;
        ++pos_;
      } else if ((c == 'e' || c == 'E') && !has_exp) {
        has_exp = true;
        ++pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '+' || text_[pos_] == '-')) {
          ++pos_;
        }
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected a number");
    std::string_view datatype =
        has_exp ? kXsdDouble : (has_dot ? kXsdDecimal : kXsdInteger);
    return std::make_pair(std::string(text_.substr(start, pos_ - start)),
                          datatype);
  }

  /// Skips to just past the next top-level '.' (error recovery).
  void SkipStatement() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"' &&
               text_[pos_] != '\n') {
          if (text_[pos_] == '\\') ++pos_;
          ++pos_;
        }
        if (pos_ < text_.size()) ++pos_;
        continue;
      }
      if (c == '<') {
        while (pos_ < text_.size() && text_[pos_] != '>' &&
               text_[pos_] != '\n') {
          ++pos_;
        }
      }
      if (c == '\n') ++line_;
      ++pos_;
      if (c == '.') return;
    }
  }

  void DeclarePrefix(std::string prefix, std::string iri) {
    prefixes_[std::move(prefix)] = std::move(iri);
  }
  void SetBase(std::string iri) { base_ = std::move(iri); }

  /// Reads "pre:" of a @prefix directive.
  Result<std::string> ReadPrefixDeclaration() {
    SkipWhitespaceAndComments();
    size_t start = pos_;
    while (pos_ < text_.size() && IsPnChar(text_[pos_])) ++pos_;
    std::string prefix(text_.substr(start, pos_ - start));
    if (!TryChar(':')) return Error("expected ':' in prefix declaration");
    return prefix;
  }

 private:
  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp <= 0x7F) {
      out->push_back(static_cast<char>(cp));
    } else if (cp <= 0x7FF) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp <= 0xFFFF) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string_view where_;
  size_t line_;
  std::string base_;
  std::unordered_map<std::string, std::string> prefixes_;
};

/// Reads one object term into `triple` (object/kind/language/datatype).
Status ReadObjectInto(TurtleCursor* cursor, Triple* triple) {
  triple->language.clear();
  triple->datatype.clear();
  char c = cursor->Peek();
  if (c == '"') {
    KSP_ASSIGN_OR_RETURN(triple->object, cursor->ReadStringBody());
    triple->object_kind = ObjectKind::kLiteral;
    if (cursor->Peek() == '@') {
      triple->language = cursor->ReadLanguageTag();
    } else if (cursor->TryChar('^')) {
      if (!cursor->TryChar('^')) {
        return cursor->Error("expected '^^' before datatype");
      }
      KSP_ASSIGN_OR_RETURN(triple->datatype, cursor->ReadIri());
    }
    return Status::OK();
  }
  if (std::isdigit(static_cast<unsigned char>(c)) || c == '+' || c == '-' ||
      c == '.') {
    KSP_ASSIGN_OR_RETURN(auto number, cursor->ReadNumber());
    triple->object = number.first;
    triple->datatype = std::string(number.second);
    triple->object_kind = ObjectKind::kLiteral;
    return Status::OK();
  }
  if (cursor->TryWord("true")) {
    triple->object = "true";
    triple->datatype = std::string(kXsdBoolean);
    triple->object_kind = ObjectKind::kLiteral;
    return Status::OK();
  }
  if (cursor->TryWord("false")) {
    triple->object = "false";
    triple->datatype = std::string(kXsdBoolean);
    triple->object_kind = ObjectKind::kLiteral;
    return Status::OK();
  }
  KSP_ASSIGN_OR_RETURN(triple->object, cursor->ReadIri());
  triple->object_kind = ObjectKind::kIri;
  return Status::OK();
}

/// Parses one statement (after directives are handled). Emits triples.
Status ParseStatement(TurtleCursor* cursor,
                      const std::function<void(const Triple&)>& sink,
                      uint64_t* emitted) {
  Triple triple;
  KSP_ASSIGN_OR_RETURN(triple.subject, cursor->ReadIri());
  while (true) {
    // verb := 'a' | iri
    if (cursor->TryWord("a")) {
      triple.predicate = std::string(kRdfType);
    } else {
      KSP_ASSIGN_OR_RETURN(triple.predicate, cursor->ReadIri());
    }
    // objectList
    while (true) {
      KSP_RETURN_NOT_OK(ReadObjectInto(cursor, &triple));
      sink(triple);
      ++*emitted;
      if (!cursor->TryChar(',')) break;
    }
    if (cursor->TryChar(';')) {
      // A dangling ';' before '.' is legal Turtle.
      if (cursor->Peek() == '.') break;
      continue;
    }
    break;
  }
  if (!cursor->TryChar('.')) {
    return cursor->Error("expected '.' at end of statement");
  }
  return Status::OK();
}

}  // namespace

TurtleParser::TurtleParser(Options options) : options_(options) {}

Result<uint64_t> TurtleParser::ParseString(
    std::string_view text, const std::function<void(const Triple&)>& sink,
    uint64_t* malformed_statements) const {
  TurtleCursor cursor(text);
  uint64_t emitted = 0;
  uint64_t malformed = 0;

  while (!cursor.AtEnd()) {
    // Directives.
    if (cursor.TryWord("@prefix") || cursor.TryWord("PREFIX")) {
      auto handle = [&]() -> Status {
        KSP_ASSIGN_OR_RETURN(std::string prefix,
                             cursor.ReadPrefixDeclaration());
        KSP_ASSIGN_OR_RETURN(std::string iri, cursor.ReadIriRef());
        cursor.TryChar('.');  // '@prefix' ends with '.', 'PREFIX' doesn't.
        cursor.DeclarePrefix(std::move(prefix), std::move(iri));
        return Status::OK();
      };
      Status st = handle();
      if (!st.ok()) {
        if (options_.strict) return st;
        ++malformed;
        cursor.SkipStatement();
      }
      continue;
    }
    if (cursor.TryWord("@base") || cursor.TryWord("BASE")) {
      auto iri = cursor.ReadIriRef();
      if (!iri.ok()) {
        if (options_.strict) return iri.status();
        ++malformed;
        cursor.SkipStatement();
        continue;
      }
      cursor.TryChar('.');
      cursor.SetBase(std::move(*iri));
      continue;
    }

    Status st = ParseStatement(&cursor, sink, &emitted);
    if (!st.ok()) {
      if (options_.strict) return st;
      ++malformed;
      cursor.SkipStatement();
    }
  }
  if (malformed_statements != nullptr) *malformed_statements = malformed;
  return emitted;
}

Result<uint64_t> TurtleParser::ParseFile(
    const std::string& path, const std::function<void(const Triple&)>& sink,
    uint64_t* malformed_statements) const {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  return ParseString(text, sink, malformed_statements);
}

Result<uint64_t> ParseNTriplesFile(
    const std::string& path, const std::function<void(const Triple&)>& sink) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  const std::string where = path + ":";
  uint64_t emitted = 0;
  std::string line;
  for (size_t line_no = 1; std::getline(in, line); ++line_no) {
    TurtleCursor cursor(line, where, line_no);
    while (!cursor.AtEnd()) {
      KSP_RETURN_NOT_OK(ParseStatement(&cursor, sink, &emitted));
    }
  }
  return emitted;
}

std::string ToNTriplesLine(const Triple& triple) {
  auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\r':
          out += "\\r";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          out.push_back(c);
      }
    }
    return out;
  };

  std::string line;
  auto append_term = [&](const std::string& term) {
    if (StartsWith(term, "_:")) {
      line += term;
    } else {
      line += "<" + term + ">";
    }
  };
  append_term(triple.subject);
  line += " ";
  line += "<" + triple.predicate + ">";
  line += " ";
  if (triple.object_kind == ObjectKind::kIri) {
    append_term(triple.object);
  } else {
    line += "\"" + escape(triple.object) + "\"";
    if (!triple.language.empty()) {
      line += "@" + triple.language;
    } else if (!triple.datatype.empty()) {
      line += "^^<" + triple.datatype + ">";
    }
  }
  line += " .";
  return line;
}

}  // namespace ksp
