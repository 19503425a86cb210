//===- support/Json.cpp ---------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace csdf;

namespace {

/// Recursive-descent parser over one in-memory buffer. Depth is bounded so
/// a hostile request line cannot blow the stack.
class Parser {
public:
  Parser(const std::string &Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool parse(JsonValue &Out) {
    if (!parseValue(Out, 0))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after JSON value");
    return true;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  bool fail(const std::string &Msg) {
    Error = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t N = std::string(Word).size();
    if (Text.compare(Pos, N, Word) != 0)
      return fail(std::string("expected '") + Word + "'");
    Pos += N;
    return true;
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C == '\\') {
        if (++Pos >= Text.size())
          break;
        switch (Text[Pos]) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u': {
          if (Pos + 4 >= Text.size())
            return fail("truncated \\u escape");
          unsigned Code = 0;
          for (int I = 1; I <= 4; ++I) {
            char H = Text[Pos + I];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code |= static_cast<unsigned>(H - 'A' + 10);
            else
              return fail("bad hex digit in \\u escape");
          }
          Pos += 4;
          // UTF-8 encode the code point (surrogate pairs are passed
          // through as two 3-byte sequences — MPL sources are ASCII, this
          // path exists for protocol robustness, not fidelity).
          if (Code < 0x80) {
            Out += static_cast<char>(Code);
          } else if (Code < 0x800) {
            Out += static_cast<char>(0xC0 | (Code >> 6));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (Code >> 12));
            Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          }
          break;
        }
        default:
          return fail("unknown escape character");
        }
        ++Pos;
        continue;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      Out += C;
      ++Pos;
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() && std::isdigit(static_cast<unsigned char>(
                                    Text[Pos])))
      ++Pos;
    bool Integral = true;
    if (Pos < Text.size() &&
        (Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E')) {
      Integral = false;
      while (Pos < Text.size() &&
             (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
              Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
              Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
    }
    std::string Num = Text.substr(Start, Pos - Start);
    if (Num.empty() || Num == "-")
      return fail("malformed number");
    errno = 0;
    char *End = nullptr;
    if (Integral) {
      long long I = std::strtoll(Num.c_str(), &End, 10);
      if (errno != ERANGE && End == Num.c_str() + Num.size()) {
        Out = JsonValue(static_cast<std::int64_t>(I));
        return true;
      }
      errno = 0; // Overflowed int64: fall through to double.
    }
    double D = std::strtod(Num.c_str(), &End);
    if (errno == ERANGE || End != Num.c_str() + Num.size())
      return fail("malformed number");
    Out = JsonValue(D);
    return true;
  }

  bool parseValue(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == 'n') {
      if (!literal("null"))
        return false;
      Out = JsonValue();
      return true;
    }
    if (C == 't') {
      if (!literal("true"))
        return false;
      Out = JsonValue(true);
      return true;
    }
    if (C == 'f') {
      if (!literal("false"))
        return false;
      Out = JsonValue(false);
      return true;
    }
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = JsonValue(std::move(S));
      return true;
    }
    if (C == '[') {
      ++Pos;
      JsonValue::Array A;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        Out = JsonValue(std::move(A));
        return true;
      }
      while (true) {
        JsonValue Elem;
        if (!parseValue(Elem, Depth + 1))
          return false;
        A.push_back(std::move(Elem));
        skipWs();
        if (Pos >= Text.size())
          return fail("unterminated array");
        if (Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Text[Pos] == ']') {
          ++Pos;
          Out = JsonValue(std::move(A));
          return true;
        }
        return fail("expected ',' or ']' in array");
      }
    }
    if (C == '{') {
      ++Pos;
      JsonValue::Object O;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        Out = JsonValue(std::move(O));
        return true;
      }
      while (true) {
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != '"')
          return fail("expected string key in object");
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':' after object key");
        ++Pos;
        JsonValue Member;
        if (!parseValue(Member, Depth + 1))
          return false;
        O[std::move(Key)] = std::move(Member);
        skipWs();
        if (Pos >= Text.size())
          return fail("unterminated object");
        if (Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Text[Pos] == '}') {
          ++Pos;
          Out = JsonValue(std::move(O));
          return true;
        }
        return fail("expected ',' or '}' in object");
      }
    }
    if (C == '-' || std::isdigit(static_cast<unsigned char>(C)))
      return parseNumber(Out);
    return fail("unexpected character");
  }

  const std::string &Text;
  std::string &Error;
  size_t Pos = 0;
};

void writeValue(std::ostringstream &OS, const JsonValue &V) {
  if (V.isNull()) {
    OS << "null";
  } else if (V.isBool()) {
    OS << (V.asBool() ? "true" : "false");
  } else if (V.isInt()) {
    OS << V.asInt();
  } else if (V.isDouble()) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V.asDouble());
    OS << Buf;
  } else if (V.isString()) {
    OS << '"' << jsonEscape(V.asString()) << '"';
  } else if (V.isArray()) {
    OS << '[';
    bool First = true;
    for (const JsonValue &E : V.asArray()) {
      if (!First)
        OS << ',';
      First = false;
      writeValue(OS, E);
    }
    OS << ']';
  } else {
    OS << '{';
    bool First = true;
    for (const auto &[Key, Member] : V.asObject()) {
      if (!First)
        OS << ',';
      First = false;
      OS << '"' << jsonEscape(Key) << "\":";
      writeValue(OS, Member);
    }
    OS << '}';
  }
}

} // namespace

std::string csdf::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

std::string JsonValue::str() const {
  std::ostringstream OS;
  writeValue(OS, *this);
  return OS.str();
}

bool csdf::parseJson(const std::string &Text, JsonValue &Out,
                     std::string &Error) {
  return Parser(Text, Error).parse(Out);
}
