#include "eval/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace sfrv::eval {

namespace {

void write_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void write_double(std::string& out, double d) {
  if (!std::isfinite(d)) {
    throw std::runtime_error("Json: non-finite double cannot be serialized");
  }
  char buf[32];
  // Shortest representation that round-trips; parses back bit-identical.
  const auto res = std::to_chars(buf, buf + sizeof buf, d);
  out.append(buf, res.ptr);
}

void newline_indent(std::string& out, int indent, int depth) {
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("Json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // Each open container is one level of recursion: bound it, so a
        // hostile document fails here instead of overflowing the stack.
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        ++depth_;
        Json v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': return Json(string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return number();
    }
  }

  Json object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(obj));
    }
  }

  Json array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(arr));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      // Everything up to the next quote or backslash is copied as it is.
      std::size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\') {
        ++end;
      }
      out.append(text_.substr(pos_, end - pos_));
      pos_ = end;
      if (pos_ >= text_.size()) fail("unterminated string");
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported;
          // the report writer never emits them).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("invalid number");
    const bool integral = tok.find_first_of(".eE") == std::string_view::npos;
    if (integral) {
      std::int64_t i = 0;
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (res.ec == std::errc() && res.ptr == tok.data() + tok.size()) {
        return Json(i);
      }
      // Out of int64 range: fall through to double.
    }
    double d = 0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size()) {
      fail("invalid number");
    }
    return Json(d);
  }

  /// Far above the few levels any report or cell entry uses.
  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< containers open at pos_
};

}  // namespace

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("Json: missing key \"" + std::string(key) + "\"");
  }
  return *v;
}

void Json::write(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(v_) ? "true" : "false";
  } else if (is_int()) {
    out += std::to_string(std::get<std::int64_t>(v_));
  } else if (holds<double>()) {
    write_double(out, std::get<double>(v_));
  } else if (is_string()) {
    write_escaped(out, std::get<std::string>(v_));
  } else if (is_array()) {
    const auto& arr = std::get<JsonArray>(v_);
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i != 0) out.push_back(',');
      if (indent >= 0) newline_indent(out, indent, depth + 1);
      arr[i].write(out, indent, depth + 1);
    }
    if (indent >= 0) newline_indent(out, indent, depth);
    out.push_back(']');
  } else {
    const auto& obj = std::get<JsonObject>(v_);
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    for (std::size_t i = 0; i < obj.size(); ++i) {
      if (i != 0) out.push_back(',');
      if (indent >= 0) newline_indent(out, indent, depth + 1);
      write_escaped(out, obj[i].first);
      out.push_back(':');
      if (indent >= 0) out.push_back(' ');
      obj[i].second.write(out, indent, depth + 1);
    }
    if (indent >= 0) newline_indent(out, indent, depth);
    out.push_back('}');
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace sfrv::eval
