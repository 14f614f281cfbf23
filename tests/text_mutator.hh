/**
 * @file
 * Seeded mutations of line-oriented text for the parser fuzz tests
 * (the `.mtx` reader and the dpu-dag text format): every mutant of a
 * valid file must parse to a result or fail with FatalError.
 */

#ifndef DPU_TESTS_TEXT_MUTATOR_HH
#define DPU_TESTS_TEXT_MUTATOR_HH

#include <string>
#include <vector>

#include "support/rng.hh"

namespace dpu {

/** One random mutation of `text`: flip 1-4 bytes, truncate, delete or
 *  duplicate a line, or replace a whitespace-separated token with an
 *  edge-case number (zero, negative, huge, not finite). */
inline std::string
mutateText(const std::string &text, Rng &rng)
{
    std::string s = text;
    if (s.empty())
        return s;
    auto pick = [&rng](size_t n) { return static_cast<size_t>(rng.below(n)); };
    auto boundaries = [&s](char sep) {
        std::vector<size_t> at = {0};
        for (size_t k = s.find(sep); k != std::string::npos;
             k = s.find(sep, k + 1))
            at.push_back(k + 1);
        at.push_back(s.size());
        return at;
    };
    switch (rng.below(4)) {
      case 0: // flip 1-4 bytes to arbitrary values
        for (size_t k = 0, n = 1 + pick(4); k < n; ++k)
            s[pick(s.size())] = static_cast<char>(rng.next() & 0xff);
        break;
      case 1: // truncate
        s.resize(pick(s.size()));
        break;
      case 2: { // delete a line, or duplicate it somewhere else
        std::vector<size_t> lines = boundaries('\n');
        size_t l = pick(lines.size() - 1);
        std::string line = s.substr(lines[l], lines[l + 1] - lines[l]);
        if (rng.below(2) == 0)
            s.erase(lines[l], line.size());
        else
            s.insert(lines[pick(lines.size())], line);
        break;
      }
      case 3: { // replace a token with an edge-case number
        static const char *const numbers[] = {
            "0",  "-1",         "1",    "4294967295", "4294967296",
            "18446744073709551616", "1e308", "-1e308", "nan", "inf",
            "99999999999999999999", "2147483648"};
        std::vector<size_t> starts;
        for (size_t k = 0; k < s.size(); ++k)
            if (s[k] != ' ' && s[k] != '\n' &&
                (k == 0 || s[k - 1] == ' ' || s[k - 1] == '\n'))
                starts.push_back(k);
        if (starts.empty())
            break;
        size_t b = starts[pick(starts.size())];
        size_t e = s.find_first_of(" \n", b);
        if (e == std::string::npos)
            e = s.size();
        s.replace(b, e - b, numbers[pick(std::size(numbers))]);
        break;
      }
    }
    return s;
}

} // namespace dpu

#endif // DPU_TESTS_TEXT_MUTATOR_HH
