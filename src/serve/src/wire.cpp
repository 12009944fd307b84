#include "ic/serve/wire.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "ic/support/assert.hpp"
#include "ic/support/strings.hpp"

namespace ic::serve {

// ---- JsonValue construction -------------------------------------------------

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double x) {
  JsonValue v;
  v.kind_ = Kind::Number;
  v.number_ = x;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::Array;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::Object;
  return v;
}

bool JsonValue::as_bool() const {
  IC_CHECK(kind_ == Kind::Bool, "JSON value is not a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  IC_CHECK(kind_ == Kind::Number, "JSON value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  IC_CHECK(kind_ == Kind::String, "JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  IC_CHECK(kind_ == Kind::Array, "JSON value is not an array");
  return array_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

void JsonValue::set(const std::string& key, JsonValue value) {
  IC_ASSERT(kind_ == Kind::Object);
  object_[key] = std::move(value);
}

void JsonValue::push_back(JsonValue value) {
  IC_ASSERT(kind_ == Kind::Array);
  array_.push_back(std::move(value));
}

// ---- parser -----------------------------------------------------------------

namespace {

/// Deepest object/array nesting a document may have. Wire requests nest two
/// or three levels; the cap keeps a hostile line from recursing the parser
/// off the I/O thread's stack.
constexpr std::size_t kMaxNesting = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    IC_CHECK(pos_ == text_.size(), "trailing characters after JSON value at "
                                       << pos_);
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
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

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxNesting) {
        fail("nesting deeper than " + std::to_string(kMaxNesting) + " levels");
      }
      ++depth_;
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return JsonValue::string(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return JsonValue::boolean(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return JsonValue::boolean(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return JsonValue();
    }
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.set(key, parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
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
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Minimal UTF-8 encoding; the protocol's strings are ASCII names,
          // surrogate pairs are out of scope and rejected.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escapes are not supported");
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
      eat_digits();
    }
    if (!digits) fail("expected a value");
    return JsonValue::number(std::stod(text_.substr(start, pos_ - start)));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open objects/arrays around pos_
};

void dump_number(std::ostream& os, double v) {
  // Integers (ids, counts, gate ids) print without an exponent; everything
  // else uses %.17g so a parse → dump → parse round trip is bit-exact.
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    os << buf;
    return;
  }
  IC_CHECK(std::isfinite(v), "cannot serialize a non-finite number as JSON");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).parse_document();
}

std::string JsonValue::dump() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::Null: os << "null"; break;
    case Kind::Bool: os << (bool_ ? "true" : "false"); break;
    case Kind::Number: dump_number(os, number_); break;
    case Kind::String: os << json_quote(string_); break;
    case Kind::Array: {
      os << '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) os << ',';
        os << array_[i].dump();
      }
      os << ']';
      break;
    }
    case Kind::Object: {
      os << '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) os << ',';
        first = false;
        os << json_quote(key) << ':' << value.dump();
      }
      os << '}';
      break;
    }
  }
  return os.str();
}

// ---- typed request/response -------------------------------------------------

namespace {

std::uint64_t as_count(const JsonValue& v, const char* field) {
  const double x = v.as_number();
  IC_CHECK(x >= 0 && x == std::floor(x) && x <= 9.007199254740992e15,
           "search field '" << field << "' must be a non-negative integer");
  return static_cast<std::uint64_t>(x);
}

WireSearchParams parse_search_params(const JsonValue& doc) {
  WireSearchParams p;
  IC_CHECK(doc.is_object(), "the 'search' field must be a JSON object");
  if (const JsonValue* v = doc.find("budget")) p.budget = as_count(*v, "budget");
  if (const JsonValue* v = doc.find("scheme")) p.scheme = v->as_string();
  IC_CHECK(p.scheme == "lut4" || p.scheme == "xor" || p.scheme == "antisat",
           "unknown lock scheme '" << p.scheme << "' (lut4|xor|antisat)");
  if (const JsonValue* v = doc.find("greedy_steps")) {
    p.greedy_steps = as_count(*v, "greedy_steps");
  }
  if (const JsonValue* v = doc.find("sa_steps")) {
    p.sa_steps = as_count(*v, "sa_steps");
  }
  if (const JsonValue* v = doc.find("neighbors")) {
    p.neighbors = as_count(*v, "neighbors");
  }
  if (const JsonValue* v = doc.find("top_k")) p.top_k = as_count(*v, "top_k");
  if (const JsonValue* v = doc.find("seed")) p.seed = as_count(*v, "seed");
  if (const JsonValue* v = doc.find("area_weight")) {
    p.area_weight = v->as_number();
  }
  if (const JsonValue* v = doc.find("depth_weight")) {
    p.depth_weight = v->as_number();
  }
  if (const JsonValue* v = doc.find("sa_initial_temp")) {
    p.sa_initial_temp = v->as_number();
  }
  if (const JsonValue* v = doc.find("sa_cooling")) {
    p.sa_cooling = v->as_number();
  }
  if (const JsonValue* v = doc.find("verify_max_conflicts")) {
    p.verify_max_conflicts = as_count(*v, "verify_max_conflicts");
  }
  return p;
}

JsonValue encode_search_params(const WireSearchParams& p) {
  JsonValue doc = JsonValue::object();
  doc.set("budget", JsonValue::number(static_cast<double>(p.budget)));
  doc.set("scheme", JsonValue::string(p.scheme));
  doc.set("greedy_steps",
          JsonValue::number(static_cast<double>(p.greedy_steps)));
  doc.set("sa_steps", JsonValue::number(static_cast<double>(p.sa_steps)));
  doc.set("neighbors", JsonValue::number(static_cast<double>(p.neighbors)));
  doc.set("top_k", JsonValue::number(static_cast<double>(p.top_k)));
  doc.set("seed", JsonValue::number(static_cast<double>(p.seed)));
  doc.set("area_weight", JsonValue::number(p.area_weight));
  doc.set("depth_weight", JsonValue::number(p.depth_weight));
  doc.set("sa_initial_temp", JsonValue::number(p.sa_initial_temp));
  doc.set("sa_cooling", JsonValue::number(p.sa_cooling));
  doc.set("verify_max_conflicts",
          JsonValue::number(static_cast<double>(p.verify_max_conflicts)));
  return doc;
}

}  // namespace

WireRequest parse_request(const std::string& line) {
  const JsonValue doc = JsonValue::parse(line);
  IC_CHECK(doc.is_object(), "request must be a JSON object");
  WireRequest req;
  if (const JsonValue* op = doc.find("op")) req.op = op->as_string();
  IC_CHECK(req.op == "predict" || req.op == "search" || req.op == "ping" ||
               req.op == "profile" || req.op == "traces" || req.op == "stats" ||
               req.op == "health" || req.op == "shutdown",
           "unknown op '" << req.op << "'");
  if (const JsonValue* model = doc.find("model")) req.model = model->as_string();
  if (const JsonValue* circuit = doc.find("circuit")) {
    req.circuit = circuit->as_string();
  }
  if (const JsonValue* select = doc.find("select")) {
    for (const JsonValue& v : select->items()) {
      const double x = v.as_number();
      IC_CHECK(x >= 0 && x == std::floor(x) && x <= 4294967295.0,
               "select entries must be non-negative gate ids");
      req.select.push_back(static_cast<std::uint32_t>(x));
    }
  }
  if (const JsonValue* timeout = doc.find("timeout_ms")) {
    req.timeout_ms = static_cast<std::int64_t>(timeout->as_number());
  }
  if (const JsonValue* id = doc.find("id")) {
    req.id = static_cast<std::uint64_t>(id->as_number());
    req.has_id = true;
  }
  if (const JsonValue* rid = doc.find("request_id")) {
    req.request_id = rid->as_string();
  }
  if (const JsonValue* format = doc.find("format")) {
    req.format = format->as_string();
    IC_CHECK(req.format.empty() || req.format == "json" ||
                 req.format == "prometheus",
             "unknown stats format '" << req.format << "'");
  }
  if (const JsonValue* action = doc.find("action")) {
    req.action = action->as_string();
  }
  if (const JsonValue* seconds = doc.find("seconds")) {
    req.seconds = seconds->as_number();
    IC_CHECK(req.seconds >= 0, "seconds must be non-negative");
  }
  if (const JsonValue* hz = doc.find("hz")) {
    req.hz = static_cast<std::int64_t>(hz->as_number());
    IC_CHECK(req.hz >= 0, "hz must be non-negative");
  }
  if (req.op == "predict") {
    IC_CHECK(!req.select.empty(), "predict needs a non-empty select array");
  }
  if (req.op == "profile") {
    IC_CHECK(req.action == "start" || req.action == "stop" ||
                 req.action == "dump",
             "profile action must be start|stop|dump, got '" << req.action
                                                             << "'");
  }
  if (req.op == "search") {
    if (const JsonValue* search = doc.find("search")) {
      req.search = parse_search_params(*search);
    }
  }
  return req;
}

std::string encode_request(const WireRequest& request) {
  JsonValue doc = JsonValue::object();
  doc.set("op", JsonValue::string(request.op));
  if (request.op == "predict") {
    doc.set("model", JsonValue::string(request.model));
    doc.set("circuit", JsonValue::string(request.circuit));
    JsonValue select = JsonValue::array();
    for (const std::uint32_t id : request.select) {
      select.push_back(JsonValue::number(static_cast<double>(id)));
    }
    doc.set("select", std::move(select));
    if (request.timeout_ms >= 0) {
      doc.set("timeout_ms",
              JsonValue::number(static_cast<double>(request.timeout_ms)));
    }
  }
  if (request.op == "search") {
    doc.set("model", JsonValue::string(request.model));
    doc.set("circuit", JsonValue::string(request.circuit));
    doc.set("search", encode_search_params(request.search));
  }
  if (request.op == "stats" && !request.format.empty()) {
    doc.set("format", JsonValue::string(request.format));
  }
  if (request.op == "profile") {
    doc.set("action", JsonValue::string(request.action));
    if (request.seconds > 0) {
      doc.set("seconds", JsonValue::number(request.seconds));
    }
    if (request.hz > 0) {
      doc.set("hz", JsonValue::number(static_cast<double>(request.hz)));
    }
  }
  if (request.has_id) {
    doc.set("id", JsonValue::number(static_cast<double>(request.id)));
  }
  if (!request.request_id.empty()) {
    doc.set("request_id", JsonValue::string(request.request_id));
  }
  return doc.dump();
}

WireResponse parse_response(const std::string& line) {
  WireResponse resp;
  resp.raw = JsonValue::parse(line);
  IC_CHECK(resp.raw.is_object(), "response must be a JSON object");
  if (const JsonValue* ok = resp.raw.find("ok")) resp.ok = ok->as_bool();
  if (const JsonValue* status = resp.raw.find("status")) {
    resp.status = status->as_string();
  }
  if (const JsonValue* error = resp.raw.find("error")) {
    resp.error = error->as_string();
  }
  if (const JsonValue* v = resp.raw.find("log_runtime")) {
    resp.log_runtime = v->as_number();
  }
  if (const JsonValue* v = resp.raw.find("seconds")) resp.seconds = v->as_number();
  if (const JsonValue* v = resp.raw.find("model_version")) {
    resp.model_version = static_cast<std::uint64_t>(v->as_number());
  }
  if (const JsonValue* v = resp.raw.find("id")) {
    resp.id = static_cast<std::uint64_t>(v->as_number());
    resp.has_id = true;
  }
  if (const JsonValue* v = resp.raw.find("request_id")) {
    resp.request_id = v->as_string();
  }
  return resp;
}

}  // namespace ic::serve
