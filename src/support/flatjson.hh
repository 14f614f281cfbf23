/**
 * @file
 * Flat one-line JSON emit/parse for the machine-written JSON lines of
 * the DSE checkpoint journal. Values are strings, numbers and
 * booleans only — no nesting — so the parser can be strict: anything
 * else is a torn or foreign line and parsing fails instead of
 * guessing.
 */

#ifndef DPU_SUPPORT_FLATJSON_HH
#define DPU_SUPPORT_FLATJSON_HH

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <system_error>
#include <unordered_map>

namespace dpu {

/** Shortest round-trip JSON rendering of a double: a parsed line
 *  re-serializes byte-identically, which is what makes the canonical
 *  journal deterministic across rewrites. */
inline std::string
jsonDouble(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no NaN/Inf; parser treats as torn
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc())
        return "null";
    return std::string(buf, end);
}

/** Escape '"' and '\' (the only characters our emitters can produce
 *  that need it; signatures and labels carry no control chars). */
inline std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

/**
 * Minimal strict parser for flat one-line JSON objects: string /
 * number / true / false values only, no nesting.
 */
class FlatJsonLine
{
  public:
    bool
    parse(const std::string &line)
    {
        const char *p = line.c_str();
        skipWs(p);
        if (*p != '{')
            return false;
        ++p;
        skipWs(p);
        if (*p == '}')
            return endsClean(p + 1);
        for (;;) {
            std::string key, value;
            if (!parseString(p, key))
                return false;
            skipWs(p);
            if (*p != ':')
                return false;
            ++p;
            skipWs(p);
            if (*p == '"') {
                if (!parseString(p, value))
                    return false;
            } else {
                const char *start = p;
                while (*p && *p != ',' && *p != '}' &&
                       !std::isspace(static_cast<unsigned char>(*p)))
                    ++p;
                value.assign(start, p);
                if (value.empty())
                    return false;
            }
            fields[key] = value;
            skipWs(p);
            if (*p == ',') {
                ++p;
                skipWs(p);
                continue;
            }
            if (*p == '}')
                return endsClean(p + 1);
            return false;
        }
    }

    bool
    has(const std::string &key) const
    {
        return fields.find(key) != fields.end();
    }

    bool
    getU64(const std::string &key, uint64_t &out) const
    {
        auto it = fields.find(key);
        if (it == fields.end())
            return false;
        const std::string &s = it->second;
        auto [end, ec] =
            std::from_chars(s.data(), s.data() + s.size(), out);
        return ec == std::errc() && end == s.data() + s.size();
    }

    bool
    getDouble(const std::string &key, double &out) const
    {
        auto it = fields.find(key);
        if (it == fields.end())
            return false;
        const std::string &s = it->second;
        // from_chars, like the to_chars emitter, is locale-free:
        // a host locale with ',' decimals must not turn every
        // fractional journal line into a "torn" reject.
        double v = 0;
        auto [end, ec] =
            std::from_chars(s.data(), s.data() + s.size(), v);
        if (ec != std::errc() || end != s.data() + s.size() ||
            !std::isfinite(v))
            return false;
        out = v;
        return true;
    }

    bool
    getBool(const std::string &key, bool &out) const
    {
        auto it = fields.find(key);
        if (it == fields.end() ||
            (it->second != "true" && it->second != "false"))
            return false;
        out = it->second == "true";
        return true;
    }

    bool
    getString(const std::string &key, std::string &out) const
    {
        auto it = fields.find(key);
        if (it == fields.end())
            return false;
        out = it->second;
        return true;
    }

  private:
    static void
    skipWs(const char *&p)
    {
        while (*p == ' ' || *p == '\t')
            ++p;
    }

    static bool
    parseString(const char *&p, std::string &out)
    {
        if (*p != '"')
            return false;
        ++p;
        out.clear();
        while (*p && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (!*p)
                    return false;
            }
            out += *p++;
        }
        if (*p != '"')
            return false;
        ++p;
        return true;
    }

    static bool
    endsClean(const char *p)
    {
        while (*p == ' ' || *p == '\t' || *p == '\r')
            ++p;
        return *p == '\0';
    }

    std::unordered_map<std::string, std::string> fields;
};

} // namespace dpu

#endif // DPU_SUPPORT_FLATJSON_HH
