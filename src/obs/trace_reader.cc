#include "obs/trace_reader.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/log.hh"

namespace chameleon
{

const JsonValue *
JsonValue::get(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &kv : object)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

namespace
{

/** Recursive-descent parser over a borrowed string. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string &error)
        : s(text), err(error)
    {
    }

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        if (pos != s.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    static constexpr std::size_t maxDepth = 64;

    bool
    fail(const char *what)
    {
        err = strFormat("json: %s at offset %zu", what, pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::char_traits<char>::length(word);
        if (s.compare(pos, len, word) != 0)
            return fail("unrecognized literal");
        pos += len;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (pos >= s.size() || s[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < s.size()) {
            const char c = s[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                if (pos + 1 >= s.size())
                    return fail("truncated escape");
                const char esc = s[pos + 1];
                pos += 2;
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                      // The simulator never emits non-ASCII; decode
                      // BMP escapes to keep the parser honest.
                      if (pos + 4 > s.size())
                          return fail("truncated \\u escape");
                      unsigned cp = 0;
                      for (int i = 0; i < 4; ++i) {
                          const char h = s[pos + i];
                          cp <<= 4;
                          if (h >= '0' && h <= '9')
                              cp |= static_cast<unsigned>(h - '0');
                          else if (h >= 'a' && h <= 'f')
                              cp |= static_cast<unsigned>(h - 'a' + 10);
                          else if (h >= 'A' && h <= 'F')
                              cp |= static_cast<unsigned>(h - 'A' + 10);
                          else
                              return fail("bad \\u escape digit");
                      }
                      pos += 4;
                      if (cp < 0x80) {
                          out += static_cast<char>(cp);
                      } else if (cp < 0x800) {
                          out += static_cast<char>(0xC0 | (cp >> 6));
                          out += static_cast<char>(0x80 | (cp & 0x3F));
                      } else {
                          out += static_cast<char>(0xE0 | (cp >> 12));
                          out += static_cast<char>(0x80 |
                                                   ((cp >> 6) & 0x3F));
                          out += static_cast<char>(0x80 | (cp & 0x3F));
                      }
                      break;
                  }
                  default:
                      return fail("unknown escape");
                }
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("control character in string");
            out += c;
            ++pos;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(double &out)
    {
        const std::size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-'))
            ++pos;
        if (pos == start)
            return fail("expected number");
        const std::string tok = s.substr(start, pos - start);
        char *end = nullptr;
        out = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            return fail("malformed number");
        return true;
    }

    bool
    parseValue(JsonValue &out, std::size_t depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= s.size())
            return fail("unexpected end of input");
        switch (s[pos]) {
          case '{': {
            ++pos;
            out.type = JsonValue::Type::Object;
            skipWs();
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (pos >= s.size() || s[pos] != ':')
                    return fail("expected ':'");
                ++pos;
                JsonValue member;
                if (!parseValue(member, depth + 1))
                    return false;
                out.object.emplace_back(std::move(key),
                                        std::move(member));
                skipWs();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == '}') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
          }
          case '[': {
            ++pos;
            out.type = JsonValue::Type::Array;
            skipWs();
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                JsonValue element;
                if (!parseValue(element, depth + 1))
                    return false;
                out.array.push_back(std::move(element));
                skipWs();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == ']') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
          }
          case '"':
            out.type = JsonValue::Type::String;
            return parseString(out.string);
          case 't':
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.type = JsonValue::Type::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.type = JsonValue::Type::Null;
            return literal("null");
          default:
            out.type = JsonValue::Type::Number;
            return parseNumber(out.number);
        }
    }

    const std::string &s;
    std::string &err;
    std::size_t pos = 0;
};

bool
schemaFail(std::string &error, const char *what, std::size_t index)
{
    error = strFormat("trace schema: %s (event %zu)", what, index);
    return false;
}

} // namespace

JsonValue
parseJson(const std::string &text, std::string &error)
{
    JsonValue root;
    JsonParser parser(text, error);
    if (!parser.parse(root))
        return JsonValue{};
    return root;
}

double
ParsedTraceEvent::arg(const std::string &key, double fallback) const
{
    for (const auto &kv : args)
        if (kv.first == key)
            return kv.second;
    return fallback;
}

bool
loadChromeTrace(const std::string &text, ParsedTrace &out,
                std::string &error)
{
    const JsonValue root = parseJson(text, error);
    if (!error.empty())
        return false;
    if (!root.isObject())
        return schemaFail(error, "document is not an object", 0);
    const JsonValue *events = root.get("traceEvents");
    if (!events || !events->isArray())
        return schemaFail(error, "missing traceEvents array", 0);

    out = ParsedTrace{};
    out.events.reserve(events->array.size());
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &ev = events->array[i];
        if (!ev.isObject())
            return schemaFail(error, "event is not an object", i);
        ParsedTraceEvent p;
        const JsonValue *name = ev.get("name");
        const JsonValue *cat = ev.get("cat");
        const JsonValue *ph = ev.get("ph");
        const JsonValue *ts = ev.get("ts");
        const JsonValue *pid = ev.get("pid");
        const JsonValue *tid = ev.get("tid");
        const JsonValue *args = ev.get("args");
        if (!name || name->type != JsonValue::Type::String)
            return schemaFail(error, "event without string name", i);
        if (!cat || cat->type != JsonValue::Type::String)
            return schemaFail(error, "event without string cat", i);
        if (!ph || ph->type != JsonValue::Type::String)
            return schemaFail(error, "event without string ph", i);
        if (ph->string != "i" && ph->string != "C")
            return schemaFail(error, "unexpected event phase", i);
        if (!ts || ts->type != JsonValue::Type::Number)
            return schemaFail(error, "event without numeric ts", i);
        if (!pid || pid->type != JsonValue::Type::Number)
            return schemaFail(error, "event without numeric pid", i);
        if (!tid || tid->type != JsonValue::Type::Number)
            return schemaFail(error, "event without numeric tid", i);
        if (!args || !args->isObject())
            return schemaFail(error, "event without args object", i);
        if (ph->string == "C" && !args->get("value"))
            return schemaFail(error, "counter without args.value", i);
        p.name = name->string;
        p.cat = cat->string;
        p.ph = ph->string;
        p.ts = ts->number;
        p.tid = static_cast<std::uint64_t>(tid->number);
        for (const auto &kv : args->object) {
            if (kv.second.type != JsonValue::Type::Number)
                return schemaFail(error, "non-numeric arg", i);
            p.args.emplace_back(kv.first, kv.second.number);
        }
        out.events.push_back(std::move(p));
    }

    if (const JsonValue *other = root.get("otherData")) {
        if (const JsonValue *rec = other->get("recorded"))
            out.recorded = static_cast<std::uint64_t>(rec->number);
        if (const JsonValue *drop = other->get("dropped"))
            out.dropped = static_cast<std::uint64_t>(drop->number);
    }
    return true;
}

bool
loadChromeTraceFile(const std::string &path, ParsedTrace &out,
                    std::string &error)
{
    std::string text;
    return readWholeFile(path, text, error) &&
           loadChromeTrace(text, out, error);
}

std::vector<TraceCategoryStats>
analyzeTrace(const ParsedTrace &trace)
{
    std::vector<TraceCategoryStats> stats;
    std::vector<double> lastTs; // parallel to stats
    for (const ParsedTraceEvent &ev : trace.events) {
        std::size_t idx = stats.size();
        for (std::size_t i = 0; i < stats.size(); ++i) {
            if (stats[i].category == ev.cat) {
                idx = i;
                break;
            }
        }
        if (idx == stats.size()) {
            TraceCategoryStats s;
            s.category = ev.cat;
            stats.push_back(std::move(s));
            lastTs.push_back(-1.0);
        }
        ++stats[idx].events;
        if (lastTs[idx] >= 0.0)
            stats[idx].interEventUs.sample(ev.ts - lastTs[idx]);
        lastTs[idx] = ev.ts;
    }
    std::stable_sort(stats.begin(), stats.end(),
                     [](const TraceCategoryStats &a,
                        const TraceCategoryStats &b) {
                         return a.events > b.events;
                     });
    return stats;
}

std::string
formatTraceReport(const ParsedTrace &trace,
                  const std::vector<TraceCategoryStats> &stats)
{
    std::string out = strFormat(
        "events: %zu parsed, %llu recorded, %llu dropped\n",
        trace.events.size(),
        static_cast<unsigned long long>(trace.recorded),
        static_cast<unsigned long long>(trace.dropped));
    for (const TraceCategoryStats &s : stats) {
        out += strFormat(
            "  %-8s %8llu events", s.category.c_str(),
            static_cast<unsigned long long>(s.events));
        if (s.interEventUs.samples() > 0)
            out += strFormat(
                "  inter-event us p50=%.1f p90=%.1f p99=%.1f",
                s.interEventUs.percentile(0.50),
                s.interEventUs.percentile(0.90),
                s.interEventUs.percentile(0.99));
        out += "\n";
    }
    return out;
}

} // namespace chameleon
