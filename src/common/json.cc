#include "common/json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <system_error>

#include "common/log.hh"

namespace mtrap
{

namespace
{

class JsonParser
{
  public:
    explicit JsonParser(const std::string &s) : s_(s) {}

    bool parse(JsonValue &out, std::string &err)
    {
        skipWs();
        if (!value(out, err))
            return false;
        skipWs();
        if (pos_ != s_.size()) {
            err = "trailing characters at offset "
                  + std::to_string(pos_);
            return false;
        }
        return true;
    }

  private:
    bool value(JsonValue &out, std::string &err)
    {
        if (pos_ >= s_.size()) {
            err = "unexpected end of input";
            return false;
        }
        switch (s_[pos_]) {
          case '{': return object(out, err);
          case '[': return array(out, err);
          case '"':
            out.kind = JsonValue::Kind::String;
            return string(out.string, err);
          case 't':
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = s_[pos_] == 't';
            return literal(out.boolean ? "true" : "false", err);
          case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null", err);
          default:
            out.kind = JsonValue::Kind::Number;
            return number(out.number, err);
        }
    }

    bool object(JsonValue &out, std::string &err)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!string(key, err))
                return false;
            skipWs();
            if (peek() != ':') {
                err = "expected ':' at offset " + std::to_string(pos_);
                return false;
            }
            ++pos_;
            skipWs();
            JsonValue v;
            if (!value(v, err))
                return false;
            out.object.emplace(std::move(key), std::move(v));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            err = "expected ',' or '}' at offset " + std::to_string(pos_);
            return false;
        }
    }

    bool array(JsonValue &out, std::string &err)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue v;
            if (!value(v, err))
                return false;
            out.array.push_back(std::move(v));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            err = "expected ',' or ']' at offset " + std::to_string(pos_);
            return false;
        }
    }

    bool string(std::string &out, std::string &err)
    {
        if (peek() != '"') {
            err = "expected string at offset " + std::to_string(pos_);
            return false;
        }
        ++pos_;
        out.clear();
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_];
            if (static_cast<unsigned char>(c) < 0x20) {
                err = "raw control character in string at offset "
                      + std::to_string(pos_);
                return false;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size()) {
                    err = "unterminated escape";
                    return false;
                }
                switch (s_[pos_]) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case '/': c = '/'; break;
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'u':
                    if (!codePoint(out, err))
                        return false;
                    ++pos_;
                    continue;
                  default:
                    err = "unknown escape";
                    return false;
                }
            }
            out.push_back(c);
            ++pos_;
        }
        if (pos_ >= s_.size()) {
            err = "unterminated string";
            return false;
        }
        ++pos_; // closing quote
        return true;
    }

    /** The four hex digits after the 'u' at pos_; leaves pos_ on the
     *  last digit. */
    bool hex4(unsigned &out, std::string &err)
    {
        const char *first = s_.data() + pos_ + 1;
        const char *last =
            first + std::min<std::size_t>(4, s_.size() - pos_ - 1);
        const auto [end, ec] = std::from_chars(first, last, out, 16);
        if (ec != std::errc() || end != first + 4) {
            err = "bad \\u escape at offset " + std::to_string(pos_);
            return false;
        }
        pos_ += 4;
        return true;
    }

    /** Decode the \uXXXX escape (or surrogate pair) whose 'u' is at
     *  pos_ and append it as UTF-8; leaves pos_ on its last digit. */
    bool codePoint(std::string &out, std::string &err)
    {
        unsigned cp = 0;
        if (!hex4(cp, err))
            return false;
        if (cp >= 0xdc00 && cp <= 0xdfff) {
            err = "unpaired low surrogate";
            return false;
        }
        if (cp >= 0xd800 && cp <= 0xdbff) {
            unsigned lo = 0;
            if (s_.compare(pos_ + 1, 2, "\\u") != 0) {
                err = "unpaired high surrogate";
                return false;
            }
            pos_ += 2;
            if (!hex4(lo, err))
                return false;
            if (lo < 0xdc00 || lo > 0xdfff) {
                err = "unpaired high surrogate";
                return false;
            }
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
        }
        // UTF-8: a lead byte, then six bits per continuation byte.
        static constexpr unsigned char kLead[] = {0x00, 0xc0, 0xe0, 0xf0};
        const int extra =
            cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        out.push_back(static_cast<char>(kLead[extra] | (cp >> (6 * extra))));
        for (int i = extra - 1; i >= 0; --i)
            out.push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3f)));
        return true;
    }

    bool number(double &out, std::string &err)
    {
        const std::size_t start = pos_;
        while (pos_ < s_.size()
               && (std::isdigit(static_cast<unsigned char>(s_[pos_]))
                   || s_[pos_] == '.' || s_[pos_] == '-'
                   || s_[pos_] == '+' || s_[pos_] == 'e'
                   || s_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start) {
            err = "expected number at offset " + std::to_string(start);
            return false;
        }
        const std::string tok = s_.substr(start, pos_ - start);
        char *end = nullptr;
        out = std::strtod(tok.c_str(), &end);
        if (!end || *end != '\0') {
            err = "bad number '" + tok + "'";
            return false;
        }
        return true;
    }

    bool literal(const char *lit, std::string &err)
    {
        const std::string l(lit);
        if (s_.compare(pos_, l.size(), l) != 0) {
            err = "expected '" + l + "' at offset "
                  + std::to_string(pos_);
            return false;
        }
        pos_ += l.size();
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    void skipWs()
    {
        while (pos_ < s_.size()
               && std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string &err)
{
    JsonParser parser(text);
    return parser.parse(out, err);
}

double
jsonNumberField(const JsonValue &v, const std::string &key,
                double fallback)
{
    const JsonValue *f = v.field(key);
    return f && f->kind == JsonValue::Kind::Number ? f->number : fallback;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

} // namespace mtrap
