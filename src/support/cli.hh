/**
 * @file
 * Strict numeric option-value parsing shared by the CLI surfaces
 * (dpuc, the bench harness, run_benches).
 *
 * std::atoi/atof silently turn "--threads=abc" into 0 and "--scale=x"
 * into 0.0, which then gets clamped or misbehaves far from the typo.
 * These helpers accept exactly one fully-consumed, in-range decimal
 * value and report everything else as a parse failure so the drivers
 * can reject the flag with a clear message instead.
 */

#ifndef DPU_SUPPORT_CLI_HH
#define DPU_SUPPORT_CLI_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace dpu {

/** Parse a full-string unsigned decimal into `out`. Rejects empty
 *  strings, signs, whitespace, trailing junk and overflow. */
inline bool
parseUint64Arg(const char *s, uint64_t &out)
{
    if (!s || !std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno == ERANGE || end == s || *end != '\0')
        return false;
    out = static_cast<uint64_t>(v);
    return true;
}

/** parseUint64Arg() restricted to the uint32_t range. */
inline bool
parseUint32Arg(const char *s, uint32_t &out)
{
    uint64_t v = 0;
    if (!parseUint64Arg(s, v) ||
        v > std::numeric_limits<uint32_t>::max())
        return false;
    out = static_cast<uint32_t>(v);
    return true;
}

/** Parse a full-string finite decimal (no nan/inf, no trailing
 *  junk; leading sign and exponent notation are fine). */
inline bool
parseDoubleArg(const char *s, double &out)
{
    if (!s || s[0] == '\0' ||
        std::isspace(static_cast<unsigned char>(s[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (errno == ERANGE || end == s || *end != '\0' ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

/** Parse a comma-separated list of strict uint32 values ("1,2,3").
 *  The axis-list form of the sweep CLIs (e.g. dse_sweep --axes).
 *  Rejects empty input, empty elements ("1,,2", trailing commas) and
 *  any element parseUint32Arg() rejects. `out` is only written on
 *  success. */
inline bool
parseUint32ListArg(const char *s, std::vector<uint32_t> &out)
{
    if (!s || s[0] == '\0')
        return false;
    std::vector<uint32_t> values;
    std::string elem;
    for (const char *p = s;; ++p) {
        if (*p != ',' && *p != '\0') {
            elem += *p;
            continue;
        }
        uint32_t v = 0;
        if (elem.empty() || !parseUint32Arg(elem.c_str(), v))
            return false;
        values.push_back(v);
        elem.clear();
        if (*p == '\0')
            break;
    }
    out = std::move(values);
    return true;
}

/** Match `s` against a closed set of choice names (exact,
 *  case-sensitive). On success `index` is the matched position.
 *  Enum-valued flags (e.g. the repository benchmark's --workload)
 *  route through this so every CLI rejects unknown names the same way
 *  instead of each driver growing its own string compare chain. */
inline bool
parseChoiceArg(const char *s, const std::vector<std::string> &choices,
               size_t &index)
{
    if (!s || s[0] == '\0')
        return false;
    for (size_t i = 0; i < choices.size(); ++i) {
        if (choices[i] == s) {
            index = i;
            return true;
        }
    }
    return false;
}

} // namespace dpu

#endif // DPU_SUPPORT_CLI_HH
