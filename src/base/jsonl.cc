#include "base/jsonl.hh"

#include <cctype>
#include <limits>

#include "base/str.hh"

namespace cwsim
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
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
            if (c < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += static_cast<char>(c);
        }
    }
    return out;
}

JsonObject &
JsonObject::add(const std::string &key, const std::string &value)
{
    fields.push_back(strfmt("\"%s\":\"%s\"", jsonEscape(key).c_str(),
                            jsonEscape(value).c_str()));
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key, const char *value)
{
    return add(key, std::string(value));
}

JsonObject &
JsonObject::add(const std::string &key, uint64_t value)
{
    fields.push_back(strfmt("\"%s\":%llu", jsonEscape(key).c_str(),
                            static_cast<unsigned long long>(value)));
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key, double value)
{
    // %.17g round-trips doubles exactly; NaN/inf are not valid JSON,
    // so encode them as strings the reader can still recognize.
    if (value != value) {
        fields.push_back(strfmt("\"%s\":\"nan\"",
                                jsonEscape(key).c_str()));
    } else {
        fields.push_back(strfmt("\"%s\":%.17g",
                                jsonEscape(key).c_str(), value));
    }
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key, bool value)
{
    fields.push_back(strfmt("\"%s\":%s", jsonEscape(key).c_str(),
                            value ? "true" : "false"));
    return *this;
}

std::string
JsonObject::str() const
{
    std::string out = "{";
    for (size_t i = 0; i < fields.size(); ++i) {
        if (i)
            out += ',';
        out += fields[i];
    }
    out += '}';
    return out;
}

namespace
{

void
skipSpace(const std::string &s, size_t &pos)
{
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos]))) {
        ++pos;
    }
}

/** Parse a JSON string literal at @p pos (expects the opening '"'). */
bool
parseString(const std::string &s, size_t &pos, std::string &out)
{
    if (pos >= s.size() || s[pos] != '"')
        return false;
    ++pos;
    out.clear();
    while (pos < s.size()) {
        char c = s[pos];
        if (c == '"') {
            ++pos;
            return true;
        }
        if (c == '\\') {
            if (pos + 1 >= s.size())
                return false;
            char esc = s[pos + 1];
            pos += 2;
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                  if (pos + 4 > s.size())
                      return false;
                  unsigned v = 0;
                  for (int i = 0; i < 4; ++i) {
                      char h = s[pos + i];
                      v <<= 4;
                      if (h >= '0' && h <= '9')
                          v |= h - '0';
                      else if (h >= 'a' && h <= 'f')
                          v |= h - 'a' + 10;
                      else if (h >= 'A' && h <= 'F')
                          v |= h - 'A' + 10;
                      else
                          return false;
                  }
                  pos += 4;
                  // Cache lines only ever escape control characters
                  // this way; anything wider is out of our alphabet.
                  if (v > 0xff)
                      return false;
                  out += static_cast<char>(v);
                  break;
              }
              default:
                return false;
            }
            continue;
        }
        out += c;
        ++pos;
    }
    return false; // unterminated
}

/** Parse a bare scalar (number / true / false / null) as literal text. */
bool
parseScalar(const std::string &s, size_t &pos, std::string &out)
{
    size_t start = pos;
    while (pos < s.size() && s[pos] != ',' && s[pos] != '}' &&
           !std::isspace(static_cast<unsigned char>(s[pos]))) {
        char c = s[pos];
        // Nested structures mean this is not the flat line we wrote.
        if (c == '{' || c == '[' || c == '"')
            return false;
        ++pos;
    }
    out = s.substr(start, pos - start);
    return !out.empty();
}

} // anonymous namespace

bool
parseFlatJson(const std::string &line,
              std::map<std::string, std::string> &out)
{
    out.clear();
    size_t pos = 0;
    skipSpace(line, pos);
    if (pos >= line.size() || line[pos] != '{')
        return false;
    ++pos;
    skipSpace(line, pos);
    if (pos < line.size() && line[pos] == '}') {
        ++pos;
        skipSpace(line, pos);
        return pos == line.size();
    }
    while (true) {
        std::string key, value;
        skipSpace(line, pos);
        if (!parseString(line, pos, key))
            return false;
        skipSpace(line, pos);
        if (pos >= line.size() || line[pos] != ':')
            return false;
        ++pos;
        skipSpace(line, pos);
        if (pos < line.size() && line[pos] == '"') {
            if (!parseString(line, pos, value))
                return false;
        } else if (!parseScalar(line, pos, value)) {
            return false;
        }
        out[key] = value;
        skipSpace(line, pos);
        if (pos >= line.size())
            return false;
        if (line[pos] == ',') {
            ++pos;
            continue;
        }
        if (line[pos] == '}') {
            ++pos;
            skipSpace(line, pos);
            return pos == line.size();
        }
        return false;
    }
}

bool
getU64(const std::map<std::string, std::string> &fields,
       const std::string &key, uint64_t &out)
{
    auto it = fields.find(key);
    return it != fields.end() && parseUnsigned(it->second, out);
}

bool
getF64(const std::map<std::string, std::string> &fields,
       const std::string &key, double &out)
{
    auto it = fields.find(key);
    if (it == fields.end())
        return false;
    if (it->second == "nan") {
        out = std::numeric_limits<double>::quiet_NaN();
        return true;
    }
    return parseDouble(it->second, out);
}

bool
getStr(const std::map<std::string, std::string> &fields,
       const std::string &key, std::string &out)
{
    auto it = fields.find(key);
    if (it == fields.end())
        return false;
    out = it->second;
    return true;
}

bool
getBool(const std::map<std::string, std::string> &fields,
        const std::string &key, bool &out)
{
    auto it = fields.find(key);
    if (it == fields.end() ||
        (it->second != "true" && it->second != "false")) {
        return false;
    }
    out = it->second == "true";
    return true;
}

std::string
field(const std::map<std::string, std::string> &fields,
      const std::string &key)
{
    auto it = fields.find(key);
    return it == fields.end() ? std::string() : it->second;
}

} // namespace cwsim
